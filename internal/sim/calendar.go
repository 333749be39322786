package sim

// Calendar tracks the occupancy of a serial resource (a DRAM data bus, an
// HMC link lane, a cache port) in fixed-width time buckets, so that
// reservations made out of call order can still backfill idle gaps. A
// single high-water cursor ("freeAt") would falsely serialize independent
// requesters: once one client reserves far in the future, earlier idle
// time becomes unusable. The calendar keeps per-bucket occupancy instead;
// a reservation starting at time t consumes capacity from t's bucket
// onward, spilling into later buckets as needed.
//
// Within a bucket, sub-bucket ordering is approximated: a reservation is
// placed at max(requested time, bucket start + occupancy already placed in
// the bucket). This bounds the error by the bucket width while preserving
// total capacity exactly.
//
// Storage is a sliding ring over the window of recently touched buckets
// (simulated time only moves forward, so almost every reservation lands
// near the latest bucket): bucket b lives at ring[b%ringSize] while b is
// inside [base, base+ringSize). When a reservation advances past the
// window, the buckets that slide out are retired into the spill map with
// their state intact, so a straggler reservation behind the window (or a
// windowed BusyWithin query) still sees exact occupancy. The ring replaces
// the previous map-of-every-bucket representation: reservation-time lookups
// become array indexing, and retired buckets cost memory only when nonzero.
// An owner whose reservations only move forward (a platform replaying GC
// events in clock order) calls Forget to fold the retired history into one
// total, so the calendar holds about one event's buckets, not the replay's.
type Calendar struct {
	width Time
	ring  []bucket
	// base is the lowest bucket index the ring currently represents. It
	// only grows; bucket b is at ring[b&ringMask] iff base <= b < base+ringSize.
	base int64
	// spill retains nonzero buckets that slid out of the ring window, in
	// fixed-size chunks keyed by bucket>>spillChunkBits. Buckets retire in
	// increasing order, so consecutive retirements hit the same chunk;
	// lastSpill caches it and the map is touched once per chunk, not once
	// per bucket (dense runs retire millions of nonzero buckets — per-bucket
	// map writes were 18% of an end-to-end run). Chunks materialize only
	// when a nonzero bucket retires into them, so idle simulated time
	// (mutator phases between GC events) costs nothing.
	spill        map[int64]*spillChunk
	lastSpill    *spillChunk
	lastSpillIdx int64

	// forgotten is the lowest bucket whose retired state is still held:
	// Forget folded the busy time of every retired bucket below it into
	// forgottenBusy and dropped the buckets (0: nothing forgotten).
	forgotten     int64
	forgottenBusy Time

	// Incremental horizon accounting, so BusyWithin(h) for h at or beyond
	// the latest occupied bucket — the overwhelmingly common query, since
	// metrics collect at the platform clock — is O(1) instead of a scan:
	// maxBucket is the highest bucket holding occupancy (-1 when empty),
	// maxBusy its busy time, and belowMax the summed busy of every bucket
	// before it. Invariant after each Reserve: belowMax + maxBusy == Busy.
	maxBucket int64
	maxBusy   Time
	belowMax  Time

	// Busy accumulates total reserved time (utilization accounting). It
	// counts whole reservations at reservation time; for time-windowed
	// accounting use BusyWithin, which attributes a reservation to the
	// buckets it actually occupies.
	Busy Time
}

// bucket is one time slice's occupancy state.
type bucket struct {
	// highWater is the placement cursor from the bucket start: the next
	// reservation in this bucket starts no earlier than start+highWater.
	// It may exceed the busy time when a reservation started mid-bucket
	// (the skipped idle gap is unusable but not busy).
	highWater Time
	// busy is the reserved (occupied) time within the bucket, <= width.
	busy Time
}

// Ring geometry: 4096 buckets cover ~400 µs of window at the 100 ns DRAM
// bucket width — orders of magnitude beyond the replay scheduler's thread
// skew, so out-of-window reservations are pathological, not routine.
const (
	calRingBits = 12
	calRingSize = int64(1) << calRingBits
	calRingMask = calRingSize - 1

	// Spill chunk geometry: 512 buckets (8 KB) per chunk.
	spillChunkBits = 9
	spillChunkSize = int64(1) << spillChunkBits
	spillChunkMask = spillChunkSize - 1
)

// spillChunk holds one aligned run of retired buckets.
type spillChunk [spillChunkSize]bucket

// spillAt returns retired bucket b's state (zero when never spilled).
func (c *Calendar) spillAt(b int64) bucket {
	if c.lastSpill != nil && b>>spillChunkBits == c.lastSpillIdx {
		return c.lastSpill[b&spillChunkMask]
	}
	if ch := c.spill[b>>spillChunkBits]; ch != nil {
		return ch[b&spillChunkMask]
	}
	return bucket{}
}

// spillPut stores retired bucket b's state, materializing its chunk on
// first use and caching it for the next consecutive retirement.
func (c *Calendar) spillPut(b int64, bk bucket) {
	ci := b >> spillChunkBits
	if c.lastSpill == nil || ci != c.lastSpillIdx {
		if c.spill == nil {
			c.spill = make(map[int64]*spillChunk)
		}
		ch := c.spill[ci]
		if ch == nil {
			ch = new(spillChunk)
			c.spill[ci] = ch
		}
		c.lastSpill, c.lastSpillIdx = ch, ci
	}
	c.lastSpill[b&spillChunkMask] = bk
}

// NewCalendar creates a calendar with the given bucket width. Widths
// around the resource's typical service time × 20 balance precision and
// memory (e.g. 100 ns for a DRAM channel).
func NewCalendar(width Time) *Calendar {
	if width == 0 {
		panic("sim: zero calendar width")
	}
	return &Calendar{width: width, ring: make([]bucket, calRingSize), maxBucket: -1}
}

// slideTo advances the ring window so bucket b fits, retiring outgoing
// nonzero buckets into the spill map. Amortized O(1) per bucket of
// simulated time advanced.
func (c *Calendar) slideTo(b int64) {
	newBase := b - calRingSize + 1
	steps := newBase - c.base
	if steps > calRingSize {
		steps = calRingSize
	}
	for i := int64(0); i < steps; i++ {
		idx := c.base + i
		s := &c.ring[idx&calRingMask]
		switch {
		case s.highWater == 0 && s.busy == 0:
			continue
		case idx < c.forgotten:
			c.forgottenBusy += s.busy
		default:
			c.spillPut(idx, *s)
		}
		*s = bucket{}
	}
	c.base = newBase
}

// Reserve books dur of occupancy starting no earlier than at, returning
// the completion time of the reservation.
func (c *Calendar) Reserve(at Time, dur Time) Time {
	if dur == 0 {
		return at
	}
	c.Busy += dur
	b := int64(at / c.width)
	remaining := dur
	var end Time
	for remaining > 0 {
		bucketStart := Time(b) * c.width
		var bk bucket
		inRing := b >= c.base
		if inRing {
			if b >= c.base+calRingSize {
				c.slideTo(b)
			}
			bk = c.ring[b&calRingMask]
		} else {
			if b < c.forgotten {
				panic("sim: calendar reservation in forgotten history")
			}
			bk = c.spillAt(b)
		}
		// Position within the bucket: after existing occupancy, and not
		// before the requested time for the first chunk.
		pos := bucketStart + bk.highWater
		if pos < at {
			// Idle gap before `at`: the reservation starts at `at`, and the
			// intervening idle time remains (approximately) available; we
			// advance the placement cursor from `at` to bucket end.
			pos = at
		}
		avail := bucketStart + c.width - pos
		if avail <= 0 {
			b++
			continue
		}
		take := remaining
		if take > avail {
			take = avail
		}
		bk.highWater = (pos + take) - bucketStart
		bk.busy += take
		if inRing {
			c.ring[b&calRingMask] = bk
		} else {
			c.spillPut(b, bk)
		}
		// Maintain the incremental horizon accounting. Chunks of one
		// reservation arrive in increasing bucket order, and any bucket
		// above maxBucket holds no occupancy yet.
		switch {
		case b > c.maxBucket:
			c.belowMax += c.maxBusy
			c.maxBucket = b
			c.maxBusy = take
		case b == c.maxBucket:
			c.maxBusy += take
		default:
			c.belowMax += take
		}
		end = pos + take
		remaining -= take
		at = end
		b++
	}
	return end
}

// Forget folds the busy time of every retired bucket wholly before
// `before` (rounded down to a spill chunk) into one total and frees the
// buckets, so a long-lived resource holds the recent window rather than
// its whole history. The caller promises that no later reservation
// starts, and no BusyWithin horizon ends, before `before`; a reservation
// or query that would need a forgotten bucket panics. Busy and every
// BusyWithin answer the promise allows are unchanged.
func (c *Calendar) Forget(before Time) {
	fb := int64(before/c.width) &^ spillChunkMask
	if fb <= c.forgotten {
		return
	}
	for ci, ch := range c.spill {
		if (ci+1)<<spillChunkBits > fb {
			continue
		}
		for i := range ch {
			c.forgottenBusy += ch[i].busy
		}
		delete(c.spill, ci)
		if ch == c.lastSpill {
			c.lastSpill = nil
		}
	}
	c.forgotten = fb
}

// BusyWithin returns the reserved time that falls inside [0, horizon),
// computed from per-bucket occupancy. Unlike the raw Busy total, a
// reservation spilling past the horizon contributes only its in-horizon
// portion, so BusyWithin(h) <= h always holds.
//
// Horizons at or beyond the last occupied bucket — every end-of-run
// utilization query — are answered in O(1) from the incremental
// accounting; earlier horizons fall back to an exact bucket scan.
func (c *Calendar) BusyWithin(horizon Time) Time {
	if horizon == 0 || c.maxBucket < 0 {
		return 0
	}
	lastBucket := int64((horizon - 1) / c.width)
	var t Time
	switch {
	case lastBucket > c.maxBucket:
		// Every occupied bucket is fully inside the horizon.
		t = c.belowMax + c.maxBusy
	case lastBucket == c.maxBucket:
		// Only the latest bucket straddles the horizon: occupancy within a
		// bucket is not positioned, so cap the contribution at the
		// in-horizon width (error bounded by one bucket width).
		in := horizon - Time(lastBucket)*c.width
		t = c.belowMax
		if c.maxBusy < in {
			t += c.maxBusy
		} else {
			t += in
		}
	default:
		t = c.busyWithinScan(horizon, lastBucket)
	}
	if t > horizon {
		t = horizon
	}
	return t
}

// busyWithinScan is the exact slow path for horizons before the latest
// occupied bucket: sum bucket occupancy over the spill map and the ring
// window, capping the straddling bucket's contribution.
func (c *Calendar) busyWithinScan(horizon Time, lastBucket int64) Time {
	if lastBucket < c.forgotten {
		panic("sim: calendar busy-time query in forgotten history")
	}
	t := c.forgottenBusy
	for ci, ch := range c.spill {
		for i := range ch {
			bk := ch[i]
			if bk.busy == 0 {
				continue
			}
			switch b := ci<<spillChunkBits + int64(i); {
			case b < lastBucket:
				t += bk.busy
			case b == lastBucket:
				in := horizon - Time(b)*c.width
				if bk.busy < in {
					t += bk.busy
				} else {
					t += in
				}
			}
		}
	}
	hi := c.maxBucket
	if hi > lastBucket {
		hi = lastBucket
	}
	for b := c.base; b <= hi; b++ {
		bk := c.ring[b&calRingMask]
		if b == lastBucket {
			in := horizon - Time(b)*c.width
			if bk.busy < in {
				t += bk.busy
			} else {
				t += in
			}
			continue
		}
		t += bk.busy
	}
	return t
}

// Utilization returns the fraction of [0, horizon) reserved, always in
// [0, 1]. It is computed from bucket occupancy within the horizon, not the
// raw Busy total: a reservation that spills past the measurement horizon
// (common at end-of-run) contributes only its in-horizon portion, where
// the old Busy/horizon ratio could exceed 1.
func (c *Calendar) Utilization(horizon Time) float64 {
	if horizon == 0 {
		return 0
	}
	return float64(c.BusyWithin(horizon)) / float64(horizon)
}
