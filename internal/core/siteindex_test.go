package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"gridsched/internal/storage"
	"gridsched/internal/workload"
)

// checkSiteIndex brute-forces every structural invariant of x and of the
// mirror behind it. The golden test compares decisions only, and a heap
// slot out of order deep in a class can stay hidden through a whole run;
// this check cannot miss it.
func checkSiteIndex(t *testing.T, x *siteIndex) {
	t.Helper()
	s, m := x.s, x.m

	// Mirror arrays against residency and reference counts.
	for id, task := range s.w.Tasks {
		var ov int32
		var ref int64
		for _, f := range task.Files {
			if m.resident[f] {
				ov++
				ref += int64(m.refs[f])
			}
		}
		if m.overlap[id] != ov {
			t.Fatalf("task %d: overlap %d, resident files give %d", id, m.overlap[id], ov)
		}
		if m.trackRefs && m.refSum[id] != ref {
			t.Fatalf("task %d: refSum %d, resident refs give %d", id, m.refSum[id], ref)
		}
	}

	// Invariant 1: each pending task in exactly its classKey's structure,
	// nothing else anywhere.
	var totalRef int64
	pending := 0
	for id := range s.w.Tasks {
		tid := workload.TaskID(id)
		inSets := 0
		for c := range x.sets {
			if w := x.sets[c]; w != nil && w[id/64]&(uint64(1)<<uint(id%64)) != 0 {
				if !s.alive[id] || x.usesHeap(c) || c != x.classKey(tid) {
					t.Fatalf("task %d (pending %v) has a bit in class %d bitset", id, s.alive[id], c)
				}
				inSets++
			}
		}
		if !s.alive[id] {
			if x.pos[id] != -1 {
				t.Fatalf("task %d not pending but pos %d", id, x.pos[id])
			}
			continue
		}
		pending++
		totalRef += m.refSum[id]
		c := x.classKey(tid)
		if x.usesHeap(c) {
			p := int(x.pos[id])
			if p < 0 || p >= len(x.heaps[c]) || x.heaps[c][p] != tid {
				t.Fatalf("task %d: pos %d does not hold it in class %d heap", id, p, c)
			}
		} else {
			if x.pos[id] != -1 {
				t.Fatalf("task %d in bitset class %d but pos %d", id, c, x.pos[id])
			}
			if inSets != 1 {
				t.Fatalf("task %d in bitset class %d found in %d bitsets", id, c, inSets)
			}
		}
	}
	if pending != s.pendingN {
		t.Fatalf("pending count %d, scheduler says %d", pending, s.pendingN)
	}

	// Heap property at every slot, pos agreement, counts, and the
	// nonempty-class bits (invariant 2).
	population := 0
	for c := range x.heaps {
		h := x.heaps[c]
		if !x.usesHeap(c) && len(h) != 0 {
			t.Fatalf("bitset class %d has %d heap entries", c, len(h))
		}
		for i, id := range h {
			if int(x.pos[id]) != i {
				t.Fatalf("class %d slot %d holds task %d whose pos is %d", c, i, id, x.pos[id])
			}
			if i > 0 && x.less(c, id, h[(i-1)/2]) {
				t.Fatalf("class %d: slot %d (task %d) outranks its parent (task %d)", c, i, id, h[(i-1)/2])
			}
		}
		if !x.usesHeap(c) {
			n := 0
			for _, w := range x.sets[c] {
				n += bits.OnesCount64(w)
			}
			if int(x.counts[c]) != n {
				t.Fatalf("class %d: count %d, bitset holds %d", c, x.counts[c], n)
			}
		} else if x.counts[c] != 0 {
			t.Fatalf("heap class %d has count %d", c, x.counts[c])
		}
		l := x.classLen(c)
		population += l
		if set := x.bits[c/64]&(uint64(1)<<uint(c%64)) != 0; set != (l > 0) {
			t.Fatalf("class %d: population %d but nonempty bit %v", c, l, set)
		}
	}
	if population != pending {
		t.Fatalf("classes hold %d tasks, %d pending", population, pending)
	}

	// Invariant 3.
	if x.needTotals && x.totalRef != totalRef {
		t.Fatalf("totalRef %d, pending refSums sum to %d", x.totalRef, totalRef)
	}

	// The noteBatch scratch is clear between batches.
	if len(x.touched) != 0 {
		t.Fatalf("%d touched tasks left over", len(x.touched))
	}
	for id := range s.w.Tasks {
		if x.delta[id] != (taskDelta{}) {
			t.Fatalf("task %d: scratch not cleared: %+v", id, x.delta[id])
		}
	}
}

func checkAllSites(t *testing.T, s *WorkerCentric) {
	t.Helper()
	for _, x := range s.indexList {
		checkSiteIndex(t, x)
	}
}

// TestSiteIndexInvariantsUnderChurn drives WorkerCentric the way the
// golden driver does — tight LRU stores, random requests, completions and
// lost executions — and checks every site index after each NoteBatch,
// NextFor and OnExecutionFailed.
func TestSiteIndexInvariantsUnderChurn(t *testing.T) {
	metrics := []Metric{MetricOverlap, MetricRest, MetricCombined, MetricCombinedLiteral}
	for _, metric := range metrics {
		for _, chooseN := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s.n%d", metric, chooseN), func(t *testing.T) {
				const sites = 3
				gen := workload.CoaddSmallConfig(5)
				gen.Tasks = 150
				w, err := workload.GenerateCoadd(gen)
				if err != nil {
					t.Fatal(err)
				}
				s := newWC(t, w, metric, chooseN)
				maxFiles := s.idx.maxFiles
				stores := make([]*storage.Store, sites)
				for i := range stores {
					if stores[i], err = storage.New(maxFiles*2, storage.LRU); err != nil {
						t.Fatal(err)
					}
					s.AttachSite(i)
				}
				checkAllSites(t, s)

				type exec struct {
					id   workload.TaskID
					site int
				}
				var inflight []exec
				drv := rand.New(rand.NewSource(int64(metric)*31 + int64(chooseN)))
				for s.Remaining() > 0 {
					site := drv.Intn(sites)
					task, st := s.NextFor(WorkerRef{Site: site})
					if st == Assigned {
						checkAllSites(t, s)
						fetched, evicted, err := stores[site].CommitBatch(task.Files)
						if err != nil {
							t.Fatal(err)
						}
						s.NoteBatch(site, task.Files, fetched, evicted)
						checkAllSites(t, s)
						inflight = append(inflight, exec{id: task.ID, site: site})
					}
					for len(inflight) > 0 && (st != Assigned || drv.Intn(3) == 0) {
						k := drv.Intn(len(inflight))
						e := inflight[k]
						inflight = append(inflight[:k], inflight[k+1:]...)
						if drv.Intn(4) == 0 {
							s.OnExecutionFailed(e.id, WorkerRef{Site: e.site})
							checkAllSites(t, s)
						} else {
							s.OnTaskComplete(e.id, WorkerRef{Site: e.site})
						}
						if st == Assigned {
							break
						}
					}
				}
			})
		}
	}
}

// TestNoteBatchFoldEdgeCases feeds hand-built batches that per-pair
// updates never produced as one net change — an evict and a fetch netting
// a negative refSum change in the same class, a file evicted and
// re-fetched in one call, redundant events, a batch naming a file twice —
// and compares the folded mirror against a twin updated directly.
func TestNoteBatchFoldEdgeCases(t *testing.T) {
	// After the set-up batches tasks 0-2 each have one file resident
	// (0, 3, 6), so all three sit in missing class 2, ranked by refSum
	// 5, 3, 2. Task 3 shares file 1 with task 0.
	w := wl(t, 12,
		[]int{0, 1, 2},
		[]int{3, 4, 5},
		[]int{6, 7, 8},
		[]int{1, 9, 10},
		[]int{11},
	)
	type step struct {
		name                    string
		batch, fetched, evicted []int
	}
	steps := []step{
		{"set-up: a file listed five times", []int{0, 0, 0, 0, 0}, []int{0}, nil},
		{"set-up", []int{3, 3, 3}, []int{3}, nil},
		{"set-up", []int{6, 6}, []int{6}, nil},
		{"reference file 1 while absent", []int{1}, nil, nil},
		// Task 0 loses file 0 (refs 5) and gains file 1 (refs 1): overlap
		// unchanged, refSum 5 -> 1, so it must sink below tasks 1 and 2.
		{"evict and fetch, net negative refSum", nil, []int{1}, []int{0}},
		{"evict and re-fetch one file", []int{3}, []int{3}, []int{3}},
		{"redundant fetch and evict", []int{6, 6}, []int{6, 1}, []int{0, 9}},
		{"positive net, same class", []int{1, 1, 1, 1, 1}, nil, nil},
		{"evict everything", nil, nil, []int{1, 3, 6}},
	}
	for _, metric := range []Metric{MetricOverlap, MetricRest, MetricCombined, MetricCombinedLiteral} {
		t.Run(metric.String(), func(t *testing.T) {
			s := newWC(t, w, metric, 1)
			s.AttachSite(0)
			x := s.indexes[0]
			twin := newSiteMirror(s.idx, len(w.Tasks))
			twin.trackRefs = x.m.trackRefs
			// Take task 3 off the pending set as a dispatch would: a task
			// not pending takes its deltas straight into the mirror.
			s.removePending(3)
			for _, st := range steps {
				s.NoteBatch(0, fids(st.batch...), fids(st.fetched...), fids(st.evicted...))
				twin.noteBatch(fids(st.batch...), fids(st.fetched...), fids(st.evicted...), nil)
				for id := range w.Tasks {
					if x.m.overlap[id] != twin.overlap[id] || x.m.refSum[id] != twin.refSum[id] {
						t.Fatalf("%s: task %d folded to overlap %d refSum %d, direct update gives %d/%d",
							st.name, id, x.m.overlap[id], x.m.refSum[id], twin.overlap[id], twin.refSum[id])
					}
				}
				for f := range x.m.resident {
					if x.m.resident[f] != twin.resident[f] || x.m.refs[f] != twin.refs[f] {
						t.Fatalf("%s: file %d residency/refs diverged", st.name, f)
					}
				}
				checkSiteIndex(t, x)
			}
		})
	}
}
