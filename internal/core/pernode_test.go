package core

import (
	"testing"

	"threadscan/internal/simt"
)

// Per-node retirement routing and node-local reclaimers (Config.PerNode).

// pinnedChurners spawns workers pinned round-robin over both nodes,
// each churning n unreferenced nodes and flushing at the end.
func pinnedChurners(s *simt.Sim, ts *ThreadScan, workers, n int) {
	for w := 0; w < workers; w++ {
		node := w % 2
		th := s.Spawn("w", func(th *simt.Thread) {
			churn(ts, th, n)
			ts.FlushAll(th)
		})
		th.Pin(node)
	}
}

// TestPerNodeRoutingReclaimsAll: the routed pipeline keeps the classic
// guarantees — every retire is eventually reclaimed, nothing leaks —
// while both nodes demonstrably run their own collects and per-node
// reclaim accounting adds up.
func TestPerNodeRoutingReclaimsAll(t *testing.T) {
	for _, helpFree := range []bool{false, true} {
		s := numaSim(4, 2, 3)
		ts := New(s, Config{BufferSize: 32, Shards: 8, PerNode: true, HelpFree: helpFree})
		if !ts.PerNode() {
			t.Fatal("PerNode not active on a two-node machine")
		}
		pinnedChurners(s, ts, 4, 300)
		if err := s.Run(); err != nil {
			t.Fatalf("helpFree=%v: %v", helpFree, err)
		}
		if lb := s.Heap().Stats().LiveBlocks; lb != 0 {
			t.Fatalf("helpFree=%v: leaked %d blocks", helpFree, lb)
		}
		st := ts.Stats()
		if st.Frees != st.Reclaimed+st.HelpFreed+st.DoubleRetires {
			t.Fatalf("helpFree=%v: lost nodes: %+v", helpFree, st)
		}
		if st.NodeCollects[0] == 0 || st.NodeCollects[1] == 0 {
			t.Fatalf("helpFree=%v: collects not per-node: %v", helpFree, st.NodeCollects)
		}
		var attributed uint64
		for _, r := range st.NodeReclaimed {
			attributed += r
		}
		if attributed != st.Reclaimed+st.HelpFreed {
			t.Fatalf("helpFree=%v: per-node reclaim attribution %d != %d freed",
				helpFree, attributed, st.Reclaimed+st.HelpFreed)
		}
		if ts.Buffered() != 0 {
			t.Fatalf("helpFree=%v: %d still buffered", helpFree, ts.Buffered())
		}
	}
}

// TestPerNodeSweepStaysLocal is the tentpole's central claim: with
// retirements routed to per-node shard groups and swept by node-local
// reclaimers, the steady-state sweep touches zero remotely-homed lines
// — where the classic globally-hashed pipeline, on the same pinned
// workload, pays remote fills for every line the reclaimer's socket
// did not retire.
func TestPerNodeSweepStaysLocal(t *testing.T) {
	run := func(perNode bool) Stats {
		s := numaSim(4, 2, 11)
		ts := New(s, Config{BufferSize: 32, Shards: 8, PerNode: perNode})
		pinnedChurners(s, ts, 4, 400)
		if err := s.Run(); err != nil {
			t.Fatalf("perNode=%v: %v", perNode, err)
		}
		if lb := s.Heap().Stats().LiveBlocks; lb != 0 {
			t.Fatalf("perNode=%v: leaked %d blocks", perNode, lb)
		}
		return ts.Stats()
	}
	routed := run(true)
	classic := run(false)
	if routed.SweepRemoteFills != 0 {
		t.Errorf("per-node sweep paid %d remote fills, want 0", routed.SweepRemoteFills)
	}
	if classic.SweepRemoteFills == 0 {
		t.Errorf("classic pipeline paid no remote sweep fills — the contrast is vacuous")
	}
}

// TestPerNodeStealUnderSkew: when one node retires everything, the
// steal threshold decides whether the other node's threads share the
// work.  A tiny threshold must produce observable stealing (remote
// claims or stolen sweeps); a huge one must keep every claim local.
func TestPerNodeStealUnderSkew(t *testing.T) {
	run := func(steal int) Stats {
		s := numaSim(4, 2, 17)
		ts := New(s, Config{
			BufferSize: 16, Shards: 8, PerNode: true, HelpFree: true,
			StealThreshold: steal,
		})
		// Node 0 retires everything; node 1 only scans when signaled.
		done := false
		retirer := s.Spawn("retirer", func(th *simt.Thread) {
			churn(ts, th, 500)
			done = true
			ts.FlushAll(th)
		})
		retirer.Pin(0)
		for i := 0; i < 2; i++ {
			sc := s.Spawn("scanner", func(th *simt.Thread) {
				for !done {
					th.Work(500)
				}
			})
			sc.Pin(1)
		}
		if err := s.Run(); err != nil {
			t.Fatalf("steal=%d: %v", steal, err)
		}
		if lb := s.Heap().Stats().LiveBlocks; lb != 0 {
			t.Fatalf("steal=%d: leaked %d blocks", steal, lb)
		}
		return ts.Stats()
	}
	greedy := run(1)
	if greedy.StolenSweeps+greedy.RemoteShardClaims == 0 {
		t.Errorf("steal threshold 1 produced no cross-node help: %+v", greedy)
	}
	local := run(1 << 20)
	if local.StolenSweeps != 0 || local.StolenCollects != 0 || local.RemoteShardClaims != 0 {
		t.Errorf("huge steal threshold still stole: sweeps=%d collects=%d remote-claims=%d",
			local.StolenSweeps, local.StolenCollects, local.RemoteShardClaims)
	}
}

// TestPerNodeFlatMachineFallsBack: PerNode on a single-node machine is
// inert — the flat model's bit-identical contract must not depend on
// callers knowing the topology.
func TestPerNodeFlatMachineFallsBack(t *testing.T) {
	s := testSim(2, 5)
	ts := New(s, Config{BufferSize: 16, PerNode: true})
	if ts.PerNode() {
		t.Fatal("PerNode active on a flat machine")
	}
	s.Spawn("w", func(th *simt.Thread) {
		churn(ts, th, 100)
		if left := ts.FlushAll(th); left != 0 {
			t.Errorf("FlushAll left %d", left)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if lb := s.Heap().Stats().LiveBlocks; lb != 0 {
		t.Fatalf("leaked %d blocks", lb)
	}
}

// TestPerNodeRemarkDoesNotRearmTrigger: marked (still-referenced)
// nodes re-buffer into the node's remark list, which must not count
// toward the collect trigger — pinned garbage sitting at the threshold
// would otherwise turn every subsequent ring drain into a futile
// signal-all collect (the per-node analog of the watermark storm).
func TestPerNodeRemarkDoesNotRearmTrigger(t *testing.T) {
	const trigger = 16
	s := numaSim(2, 2, 59)
	ts := New(s, Config{BufferSize: 8, PerNode: true, CollectWatermark: trigger})
	release := false
	pinned := false
	holder := s.Spawn("pinner", func(th *simt.Thread) {
		th.PushFrame(trigger)
		for i := 0; i < trigger; i++ {
			allocNode(th, 15, uint64(i))
			th.SetSlot(i, th.Reg(15))
			addr := th.Reg(15)
			th.SetReg(15, 0)
			ts.Free(th, addr)
		}
		pinned = true
		for !release {
			th.Pause()
		}
		for i := 0; i < trigger; i++ {
			th.SetSlot(i, 0)
		}
		th.PopFrame()
	})
	holder.Pin(0)
	worker := s.Spawn("worker", func(th *simt.Thread) {
		for !pinned {
			th.Pause()
		}
		churn(ts, th, 100)
		st := ts.Stats()
		// Ring drains happen every BufferSize frees; each may trip the
		// trigger at most once on fresh retirement.  A storm would run
		// a collect per drain *plus* one per remark re-buffer.
		if max := uint64(100/trigger + 100/8 + 3); st.Collects > max {
			t.Errorf("collect storm: %d collects for 100 frees (want <= %d)", st.Collects, max)
		}
		release = true
		for s.Heap().Stats().LiveBlocks > 0 {
			if ts.FlushAll(th) == 0 {
				break
			}
			th.Work(1000)
		}
		ts.FlushAll(th)
	})
	worker.Pin(0)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if lb := s.Heap().Stats().LiveBlocks; lb != 0 {
		t.Fatalf("leaked %d blocks", lb)
	}
}

// TestPerNodeChurnedThreadExitRoutes: a mid-run-spawned thread that
// exits with buffered retirements must route them (tagged with its
// inherited node) into the per-node sub-buffers — the routed analog of
// the orphan list — and a later collect must reclaim them.  The
// serialized case exits through the one shared collect slot, which the
// exit path must take once, not once per node (the mutex is not
// reentrant, so a second Lock would hang the run).
func TestPerNodeChurnedThreadExitRoutes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		serialize bool
	}{{"overlapped", false}, {"serialized", true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := numaSim(4, 2, 7)
			ts := New(s, Config{BufferSize: 1024, Shards: 4, PerNode: true,
				SerializeCollects: tc.serialize})
			parent := s.Spawn("parent", func(th *simt.Thread) {
				for w := 0; w < 3; w++ {
					s.SpawnFrom(th, "churned", func(c *simt.Thread) {
						churn(ts, c, 40) // buffered only: ring 1024 never fills
					})
					th.Work(20_000)
				}
				th.Work(400_000) // let the children exit
				ts.Collect(th)
				if left := ts.FlushAll(th); left != 0 {
					t.Errorf("flush left %d", left)
				}
			})
			parent.Pin(1)
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if lb := s.Heap().Stats().LiveBlocks; lb != 0 {
				t.Fatalf("leaked %d blocks", lb)
			}
			if n := ts.RegisteredThreads(); n != 0 {
				t.Fatalf("%d threads still registered", n)
			}
			st := ts.Stats()
			if st.Frees != 3*40 || st.Reclaimed+st.HelpFreed != st.Frees {
				t.Fatalf("stats: %+v", st)
			}
			// All churned children inherited node 1; their exits routed there.
			if st.NodeCollects[1] == 0 {
				t.Fatalf("no node-1 collect despite node-1 retirement: %v", st.NodeCollects)
			}
			if st.NodeReclaimed[0] != 0 {
				t.Fatalf("node-0 attributed %d reclaims; only node-1 threads retired", st.NodeReclaimed[0])
			}
		})
	}
}
