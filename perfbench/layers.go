package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strings"

	"charonsim/internal/exec"
	"charonsim/internal/metrics"
)

// counterSums maps a per-layer metric to the snapshot counters it sums.
// The patterns follow the names the simulator's components publish
// (CollectMetrics): "<platform>/cpu/core3/mem_accesses" and so on.
var counterSums = []struct {
	metric string
	re     *regexp.Regexp
}{
	{"cpu.mem_accesses", regexp.MustCompile(`/cpu/core\d+/mem_accesses$`)},
	{"cpu.mshr_stalls", regexp.MustCompile(`/cpu/core\d+/mshr_stalls$`)},
	{"cache.accesses", regexp.MustCompile(`/cpu/(core\d+/)?l\d+d?/(hits|misses)$`)},
	{"cache.misses", regexp.MustCompile(`/cpu/(core\d+/)?l\d+d?/misses$`)},
	{"dram.requests", regexp.MustCompile(`/dram/ch\d+/(reads|writes)$`)},
	{"dram.row_hits", regexp.MustCompile(`/dram/ch\d+/bank\d+/row_hits$`)},
	{"dram.row_accesses", regexp.MustCompile(`/dram/ch\d+/bank\d+/row_(hits|opens|conflicts)$`)},
	{"hmc.vault_bytes", regexp.MustCompile(`/vault\d+/(read|write)_bytes$`)},
	{"hmc.link_bytes", regexp.MustCompile(`/hmc/(link\d+|hostlink)/(down|up)_bytes$`)},
	{"hmc.local", regexp.MustCompile(`/hmc/local_accesses$`)},
	{"hmc.accesses", regexp.MustCompile(`/hmc/(local|remote)_accesses$`)},
	{"charon.offloads", regexp.MustCompile(`/charon/offload_[a-z]+$`)},
	{"charon.unit_requests", regexp.MustCompile(`/charon/(cube\d+/)?[a-z]+\d+/requests$`)},
	{"charon.bmcache_hits", regexp.MustCompile(`/charon/bmcache\d+/hits$`)},
	{"charon.bmcache_accesses", regexp.MustCompile(`/charon/bmcache\d+/(hits|misses)$`)},
}

// exactCounts are the layer metrics that are work counts: two traced
// passes with the same seed must agree on every one of them exactly.
var exactCounts = []string{
	"cpu.mem_accesses", "cpu.mshr_stalls", "cache.accesses", "cache.miss_ratio",
	"dram.requests", "dram.row_hit_ratio", "hmc.vault_bytes", "hmc.link_bytes",
	"hmc.local_ratio", "charon.offloads", "charon.unit_requests",
	"charon.bmcache_hit_ratio", "gc.recordings", "gc.events",
	"experiments.charon_speedup_x", "experiments.paper_error_pct",
	"checkpoint.units_written", "checkpoint.result_entries",
	"checkpoint.journal_entries", "server.dedup_hits", "server.sweep_child_dedup",
}

func init() {
	for _, k := range exec.Kinds() {
		exactCounts = append(exactCounts, "exec.gc_events."+platformPrefix(k))
	}
}

// simCounters reduces a simulator counter snapshot to the per-layer work
// counts and ratios. <platform>/sim/events is deliberately unused: replay
// no longer steps the engine, so it always reads 0 (see README.md).
func simCounters(snap metrics.Snapshot) map[string]float64 {
	sums := map[string]float64{}
	for name, v := range snap.Counters {
		for _, c := range counterSums {
			if c.re.MatchString(name) {
				sums[c.metric] += v
			}
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out := map[string]float64{
		"cpu.mem_accesses":         sums["cpu.mem_accesses"],
		"cpu.mshr_stalls":          sums["cpu.mshr_stalls"],
		"cache.accesses":           sums["cache.accesses"],
		"cache.miss_ratio":         ratio(sums["cache.misses"], sums["cache.accesses"]),
		"dram.requests":            sums["dram.requests"],
		"dram.row_hit_ratio":       ratio(sums["dram.row_hits"], sums["dram.row_accesses"]),
		"hmc.vault_bytes":          sums["hmc.vault_bytes"],
		"hmc.link_bytes":           sums["hmc.link_bytes"],
		"hmc.local_ratio":          ratio(sums["hmc.local"], sums["hmc.accesses"]),
		"charon.offloads":          sums["charon.offloads"],
		"charon.unit_requests":     sums["charon.unit_requests"],
		"charon.bmcache_hit_ratio": ratio(sums["charon.bmcache_hits"], sums["charon.bmcache_accesses"]),
	}
	for _, k := range exec.Kinds() {
		p := platformPrefix(k)
		out["exec.gc_events."+p] = snap.Counters[p+"/gc_events"]
	}
	return out
}

// checkConservation asserts the model's byte-conservation law on a
// snapshot: every byte the requesters (host cores after their caches,
// and the Charon units) asked for is served by exactly one DRAM channel
// or HMC vault. Link and TSV traffic is transport and is not counted.
func checkConservation(snap metrics.Snapshot) error {
	var req, srv float64
	for name, v := range snap.Counters {
		bytes := strings.HasSuffix(name, "/read_bytes") || strings.HasSuffix(name, "/write_bytes")
		switch {
		case strings.Contains(name, "/cpu/") && (strings.HasSuffix(name, "/mem_read_bytes") || strings.HasSuffix(name, "/mem_write_bytes")):
			req += v
		case strings.HasSuffix(name, "/charon/mem_read_bytes") || strings.HasSuffix(name, "/charon/mem_write_bytes"):
			req += v
		case bytes && (strings.Contains(name, "/dram/") || strings.Contains(name, "/vault")):
			srv += v
		}
	}
	if req == 0 {
		return errors.New("byte conservation: no requester-side bytes recorded")
	}
	if req != srv {
		return fmt.Errorf("byte conservation violated: requesters asked for %.0f B, DRAM/vaults served %.0f B", req, srv)
	}
	return nil
}

// cpuShares attributes a CPU profile's time to packages by each sample's
// innermost frame (flat time) and returns every cpuShareModules entry as
// a percentage of the profile. Shares sum to 100 (0 for an empty
// profile).
func cpuShares(profile []byte) (map[string]float64, error) {
	flat, err := flatByFunction(profile)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, m := range cpuShareModules {
		known[m] = true
	}
	var total float64
	byModule := map[string]float64{}
	for fn, v := range flat {
		m := moduleOf(fn)
		if !known[m] {
			m = "other"
		}
		byModule[m] += v
		total += v
	}
	out := map[string]float64{}
	for _, m := range cpuShareModules {
		if total > 0 {
			out[m] = 100 * byModule[m] / total
		} else {
			out[m] = 0
		}
	}
	return out, nil
}

// moduleOf maps a profiled function name to the module it belongs to:
// the first path element under charonsim/internal, "runtime" for the Go
// runtime, or the import path otherwise.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "charonsim/internal/"):
		rest := strings.TrimPrefix(pkg, "charonsim/internal/")
		if i := strings.Index(rest, "/"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return pkg
}

// flatByFunction decodes a gzipped pprof CPU profile (the protobuf that
// runtime/pprof writes) just far enough to sum each sample's last value
// (CPU nanoseconds) by the function of its innermost frame.
func flatByFunction(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		funcName = map[uint64]uint64{} // function id -> string index
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		leafVal  = map[uint64]float64{}
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var locs, vals []uint64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				leafVal[locs[0]] += float64(int64(vals[len(vals)-1]))
			}
		case 4: // Location
			var id, fn uint64
			seenLine := false
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first one is the innermost inlined frame
					if !seenLine {
						seenLine = true
						return eachField(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			if err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := map[string]float64{}
	for loc, v := range leafVal {
		name := "?"
		if si, ok := funcName[locFunc[loc]]; ok && int(si) < len(strs) {
			name = strs[si]
		}
		out[name] += v
	}
	return out, nil
}

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (b non-nil) encoding.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks a protobuf message, calling fn with each field's number
// and either its varint value or (for length-delimited fields) its bytes.
// Fixed-width fields are skipped.
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
