package engine

// Engine merging. K engines fed disjoint slices of one observation
// stream, such as engines restored from snapshots taken in separate
// processes, merge into a single engine whose signals are bit-identical
// to one engine having seen the whole stream: per-bin medians are exact
// order statistics
// (timeseries.IncrementalBin.Merge), so the union is
// permutation-invariant, which is also what makes Merge commutative and
// associative up to internal heap layout.

import (
	"fmt"
)

// Merge folds other's resident state, watermark, and counters into e.
// Both engines must agree on the semantic options (BinWidth,
// MinTraceroutes, Window, MaxLateness); shard counts and watermarks may
// differ freely — state is re-striped onto e's shards as it moves, and
// the merged watermark is the maximum of the two.
//
// Merge consumes other: its bins and windows are moved, not copied, so
// the merge of a disjoint split is allocation-light, and other must not
// be used afterwards. Counter series are registry-backed, so other's
// ingested/dropped/evicted totals are added to e's only when the two
// engines use distinct registries — with a shared Options.Metrics the
// series are already the same and adding would double-count.
//
// Both engines must be quiescent (no concurrent Observe or Signal):
// merge only after every feeder has finished.
func (e *Engine) Merge(other *Engine) error {
	if other == e {
		return fmt.Errorf("engine: cannot merge an engine into itself")
	}
	if e.opts.BinWidth != other.opts.BinWidth || e.opts.MinTraceroutes != other.opts.MinTraceroutes ||
		e.opts.Window != other.opts.Window || e.opts.MaxLateness != other.opts.MaxLateness {
		return fmt.Errorf("%w: (bin=%v min=%d window=%v lateness=%v) vs (bin=%v min=%d window=%v lateness=%v)",
			ErrSnapshotOptions,
			e.opts.BinWidth, e.opts.MinTraceroutes, e.opts.Window, e.opts.MaxLateness,
			other.opts.BinWidth, other.opts.MinTraceroutes, other.opts.Window, other.opts.MaxLateness)
	}
	// Max-merge the watermark first so windowed lateness math in e is
	// already correct for any state moved below.
	if on := other.newest.Load(); on != -1<<62 {
		for {
			cur := e.newest.Load()
			if on <= cur || e.newest.CompareAndSwap(cur, on) {
				break
			}
		}
	}
	for _, osh := range other.shards {
		osh.mu.Lock()
		for asn, oaw := range osh.ases {
			delete(osh.ases, asn)
			sh := e.shardOf(asn)
			sh.mu.Lock()
			aw := sh.ases[asn]
			if aw == nil {
				// AS unseen by e: adopt the whole window.
				sh.ases[asn] = oaw
				sh.probes += int64(len(oaw.probes))
				for _, pw := range oaw.probes {
					sh.bins += int64(len(pw.bins))
					for _, b := range pw.bins {
						sh.samples += int64(b.Len())
					}
				}
				sh.mu.Unlock()
				continue
			}
			for id, opw := range oaw.probes {
				pw := aw.probes[id]
				if pw == nil {
					aw.probes[id] = opw
					sh.probes++
					sh.bins += int64(len(opw.bins))
					for _, b := range opw.bins {
						sh.samples += int64(b.Len())
					}
					continue
				}
				for key, ob := range opw.bins {
					b := pw.bins[key]
					if b == nil {
						pw.bins[key] = ob
						sh.bins++
						sh.samples += int64(ob.Len())
						continue
					}
					b.Merge(ob)
					sh.samples += int64(ob.Len())
				}
			}
			sh.mu.Unlock()
		}
		// Re-striping moved everything out; zero the source gauges so a
		// stray Stats on the consumed engine reads empty instead of stale.
		osh.probes, osh.bins, osh.samples = 0, 0, 0
		osh.mu.Unlock()
	}
	if e.dropped != other.dropped {
		// Distinct registries: fold other's monotonic series into e's.
		var ingested int64
		for _, osh := range other.shards {
			ingested += osh.ingested.Value()
		}
		e.shards[0].ingested.Add(ingested)
		e.dropped.Add(other.dropped.Value())
		e.evicted.Add(other.evicted.Value())
	}
	return nil
}
