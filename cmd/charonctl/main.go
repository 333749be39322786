// Command charonctl is the resilient command-line client for charond,
// the simulation job service. It wraps every API exchange in bounded
// retries on the server's own seeded backoff schedule and optional
// hedged GET polling, and it propagates the command's -timeout to the
// server as an X-Charon-Deadline header so the caller's patience bounds
// job execution end to end.
//
// Usage:
//
//	charonctl -server http://127.0.0.1:8080 submit -experiment fig12 -wait
//	charonctl sweep -experiments fig12,fig13 -heap-factors 1.2,1.5 -wait
//	charonctl wait <job-id>
//	charonctl result <job-id>
//	charonctl cancel <job-id>
//	charonctl metrics
//
// Reports are rendered server-side through the same formatter as the
// charonsim CLI, so the bytes charonctl prints are identical to a local
// run. The extra "proxy" subcommand runs the deterministic netfault TCP
// proxy for chaos testing:
//
//	charonctl proxy -listen 127.0.0.1:0 -target 127.0.0.1:8080 -net-rate 0.3 -net-seed 7
//
// See internal/client for the retry/hedge semantics and the
// exit-code reference (0 ok, 1 any other failure, 2 usage, 3 the job
// itself failed or was canceled).
package main

import (
	"os"

	"charonsim/internal/client"
)

func main() {
	os.Exit(client.Main(os.Args[1:], os.Stdout, os.Stderr))
}
