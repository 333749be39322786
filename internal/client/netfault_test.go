package client

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"charonsim/internal/fault/netfault"
	"charonsim/internal/server"
)

// TestClientThroughNetfault drives submit → wait → result through the
// seeded netfault proxy at the netchaos gate's rate, one fresh
// connection per request, with retries alone and with hedged polling.
// The report that crossed the faulty network must equal a direct fetch,
// and every hard fault the proxy injected must show up as client
// recovery work.
func TestClientThroughNetfault(t *testing.T) {
	for _, hedge := range []time.Duration{0, 300 * time.Millisecond} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("hedge=%v/seed=%d", hedge, seed), func(t *testing.T) {
				srv, err := server.New(server.Config{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(srv.Close)
				hs := httptest.NewServer(srv.Handler())
				t.Cleanup(hs.Close)
				p, err := netfault.New("127.0.0.1:0", strings.TrimPrefix(hs.URL, "http://"),
					netfault.Config{Rate: 0.25, Seed: seed}, nil)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { p.Close() })

				c := newTestClient(t, "http://"+p.Addr(), func(cfg *Config) {
					cfg.HTTPClient = &http.Client{
						Timeout:   10 * time.Second,
						Transport: &http.Transport{DisableKeepAlives: true},
					}
					cfg.RetryBudget = 10
					cfg.RetryBackoff = 10 * time.Millisecond
					cfg.HedgeDelay = hedge
					cfg.Seed = seed
				})
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				j, err := c.Submit(ctx, server.JobSpec{Experiment: "table4"})
				if err != nil {
					t.Fatalf("submit through the proxy: %v", err)
				}
				text, err := c.WaitResult(ctx, j.ID)
				if err != nil {
					t.Fatalf("wait-result through the proxy: %v", err)
				}
				direct, err := newTestClient(t, hs.URL, nil).Result(ctx, j.ID)
				if err != nil {
					t.Fatal(err)
				}
				if text != direct {
					t.Fatal("report fetched through the proxy differs from a direct fetch")
				}

				counts := p.Counts()
				hard := counts[netfault.ClassBlackhole] + counts[netfault.ClassReset] + counts[netfault.ClassTruncate]
				work := counter(c, "client/retries") + counter(c, "client/net_errors")
				if hedge > 0 {
					// A winning hedge abandons its twin, so a fault on the
					// loser is absorbed without a counted error.
					work += counter(c, "client/hedges")
				}
				if hard > 0 && work == 0 {
					t.Fatalf("proxy injected %d hard fault(s) %v but the client ledger shows no recovery work", hard, counts)
				}
				t.Logf("injected %v; retries=%v net_errors=%v hedges=%v", counts,
					counter(c, "client/retries"), counter(c, "client/net_errors"), counter(c, "client/hedges"))
			})
		}
	}
}
