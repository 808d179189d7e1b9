package machine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"tseries/internal/link"
	"tseries/internal/sim"
)

func TestShardedMachineBuilds(t *testing.T) {
	m := newMachine(t, 4) // one cabinet: 16 nodes, 2 modules
	if m.Group.Shards() != 2 || len(m.Modules) != 2 {
		t.Fatalf("shards=%d modules=%d, want 2/2", m.Group.Shards(), len(m.Modules))
	}
	// Corner-to-corner routing crosses the shard boundary (node 15 is
	// module 1's, node 0 module 0's).
	var ok bool
	m.Group.Shard(0).Go("tx", func(p *sim.Proc) {
		if err := m.Endpoint(0).Send(p, 15, 1, []byte("across the tesseract")); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	m.Group.Shard(1).Go("rx", func(p *sim.Proc) {
		src, payload := m.Endpoint(15).Recv(p, 1)
		ok = src == 0 && string(payload) == "across the tesseract"
	})
	m.Run(0)
	if !ok {
		t.Fatal("cross-shard message failed")
	}
	if st := m.SimStats(); st.CrossShard == 0 {
		t.Error("expected staged cross-shard traffic")
	}
}

func TestShardedSnapshotAllRunsOnShard0(t *testing.T) {
	// SnapshotAll takes ≈15 s wall on four modules too (each snapshots
	// on its own shard), joined on shard 0.
	m := newMachine(t, 5)
	var elapsed sim.Duration
	m.K.Go("snap", func(p *sim.Proc) {
		start := p.Now()
		if _, err := m.SnapshotAll(p); err != nil {
			t.Errorf("snapall: %v", err)
		}
		elapsed = p.Now().Sub(start)
	})
	m.Run(0)
	if s := elapsed.Seconds(); s < 13 || s > 17 {
		t.Fatalf("machine snapshot took %.2f s, want ≈15 regardless of module count", s)
	}

	// The join channel lives on shard 0: a fan-out issued from any other
	// shard is a programming error, and the panic says where to call it.
	m = newMachine(t, 4)
	m.Group.Shard(1).Go("snap", func(p *sim.Proc) { m.SnapshotAll(p) })
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "shard 0") {
			t.Fatalf("SnapshotAll from shard 1: panic %v, want one naming shard 0", r)
		}
	}()
	m.Run(0)
}

func TestNewAutoPicksGeometry(t *testing.T) {
	one, err := NewAuto(context.Background(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if one.Group.Shards() != 1 || one.Group.Lookahead() != 0 {
		t.Fatalf("single-module dim-3 machine: shards=%d lookahead=%v, want one unbounded shard",
			one.Group.Shards(), one.Group.Lookahead())
	}
	if st := one.SimStats(); st.Shards != nil || st.Windows != 0 {
		t.Fatalf("one-shard stats carry shard fields: %+v", st)
	}
	sharded, err := NewAuto(context.Background(), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Module m is shard m, and every cross-shard edge is a link, so the
	// window width is the link floor.
	if sharded.Group.Shards() != 4 || sharded.Group.Lookahead() != link.Lookahead {
		t.Fatalf("dim-5 machine: shards=%d lookahead=%v, want 4 shards (one per module) with lookahead %v",
			sharded.Group.Shards(), sharded.Group.Lookahead(), link.Lookahead)
	}
	for id, nd := range sharded.Nodes {
		if nd.K != sharded.Group.Shard(id/8) {
			t.Fatalf("node %d runs on shard %d, want shard %d", id, sharded.Group.ShardOf(nd.K), id/8)
		}
	}
}

// TestShardedMachineWorkerInvariant runs the same partitioned exchange
// at worker counts 1, 2, and 4 and demands identical end state: the
// partition is fixed by the geometry, workers only execute it.
func TestShardedMachineWorkerInvariant(t *testing.T) {
	run := func(workers int) string {
		m, err := NewAuto(context.Background(), 4, workers)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < len(m.Nodes); id++ {
			nodeID := id
			m.GoNode(id, fmt.Sprintf("x%d", id), func(p *sim.Proc) {
				peer := nodeID ^ 15 // opposite corner: always cross-module
				ep := m.Endpoint(nodeID)
				if err := ep.Send(p, peer, 2, []byte{byte(nodeID)}); err != nil {
					t.Errorf("node %d send: %v", nodeID, err)
					return
				}
				src, payload := ep.Recv(p, 2)
				if src != peer || len(payload) != 1 || payload[0] != byte(peer) {
					t.Errorf("node %d: got %d bytes from %d", nodeID, len(payload), src)
				}
			})
		}
		end := m.Run(0)
		return fmt.Sprintf("end=%v stats=%+v", end, m.SimStats())
	}
	want := run(1)
	for _, w := range []int{2, 4} {
		if got := run(w); got != want {
			t.Errorf("workers=%d diverged:\n%s\nvs\n%s", w, got, want)
		}
	}
}
