package experiments

import (
	"encoding/json"
	"fmt"

	"charonsim/internal/checkpoint"
	"charonsim/internal/exec"
	"charonsim/internal/fault"
)

// resultSchema versions the serialized replayed record (results plus
// counters); bump it whenever exec.Result, the counters, or anything
// feeding them changes shape or timing semantics, so stale sweeps
// re-execute instead of replaying old numbers.
const resultSchema = 2

// runKey canonicalizes the fully-resolved configuration of one replay
// unit. Everything that can change the result is in the key — recording
// identity (workload, factor, collector mode), platform kind and
// hardware, GC thread count — plus, per the documented
// conservative-invalidation rule, the knobs that *shouldn't* change
// results but guard against drift: the complete fault configuration and
// the session parallelism.
func (s *Session) runKey(u unit) string {
	return fmt.Sprintf(
		"replay/v%d|wl=%s|factor=%.6g|mode=%v|platform=%s|threads=%d|par=%d|%s|%s",
		resultSchema, u.r.Name, u.r.Factor, u.r.Mode, u.kind, u.threads, s.cfg.Parallelism,
		hardwareKey(u.kind, u.hw), faultKey(u.fc))
}

// hardwareKey canonicalizes a platform's hardware as exec resolves it, so
// options that spell out the Table 2 defaults key like a plain platform.
// Field-by-field, like faultKey.
func hardwareKey(kind exec.Kind, hw exec.Options) string {
	c := hw.CharonFor(kind)
	return fmt.Sprintf(
		"hw:topo=%s,copy=%d,bmcount=%d,scanpush=%d,mai=%d,tck=%d,grain=%d,bmcache=%d,dist=%t,cpuside=%t",
		hw.Topology, c.CopySearchPerCube, c.BitmapCountPerCube, c.ScanPushUnits, c.MAIEntries,
		uint64(c.LogicPeriod), c.StreamGrain, c.BitmapCacheBytes, c.Distributed, c.CPUSide)
}

// faultKey canonicalizes every fault knob. Field-by-field (not %+v) so a
// fault.Config field addition forces a conscious decision here.
func faultKey(fc fault.Config) string {
	return fmt.Sprintf(
		"fault:rate=%.6g,seed=%d,crc=%.6g,budget=%d,backoff=%d,ecc=%.6g,ecclat=%d,bank=%.6g,ufail=%.6g,udeg=%.6g,dfac=%.6g,failall=%t,deadline=%d",
		fc.Rate, fc.Seed, fc.LinkCRCRate, fc.RetryBudget, uint64(fc.RetryBackoff),
		fc.ECCRate, uint64(fc.ECCLatency), fc.HardBankRate, fc.UnitFailRate,
		fc.UnitDegradeRate, fc.DegradeFactor, fc.FailAllUnits, uint64(fc.OffloadDeadline))
}

// getCached decodes a stored replay record. A payload that does not
// decode is a miss: the unit simulates again and its Put overwrites the
// entry. The store's checksum makes that near-impossible, but a miss is
// always safe.
func getCached(st *checkpoint.Store, key string) (replayed, bool) {
	payload, ok := st.Get(key)
	if !ok {
		return replayed{}, false
	}
	var rep replayed
	if err := json.Unmarshal(payload, &rep); err != nil {
		return replayed{}, false
	}
	return rep, true
}

// putCached persists one completed replay record. Errors are swallowed by
// design (counted in the store's stats): checkpointing must never fail a
// sweep that would otherwise succeed.
func putCached(st *checkpoint.Store, key string, rep replayed) {
	payload, err := json.Marshal(rep)
	if err != nil {
		return
	}
	_ = st.Put(key, payload)
}
