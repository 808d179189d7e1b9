package cube

import (
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	if Nodes(0) != 1 || Nodes(3) != 8 || Nodes(12) != 4096 || Nodes(14) != 16384 {
		t.Fatal("Nodes wrong")
	}
	if d, err := DimOf(4096); err != nil || d != 12 {
		t.Fatalf("DimOf(4096) = %d, %v", d, err)
	}
	if _, err := DimOf(6); err == nil {
		t.Fatal("DimOf(6) should fail")
	}
	if Neighbor(5, 1) != 7 {
		t.Fatal("Neighbor wrong")
	}
	if !Adjacent(4, 5) || Adjacent(4, 7) || Adjacent(4, 4) {
		t.Fatal("Adjacent wrong")
	}
	if Distance(0b1010, 0b0110) != 2 {
		t.Fatal("Distance wrong")
	}
}

func TestNeighbors(t *testing.T) {
	ns := Neighbors(0, 4)
	want := []int{1, 2, 4, 8}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("Neighbors(0,4) = %v", ns)
		}
	}
}

func TestRouteECube(t *testing.T) {
	path := Route(0b000, 0b101)
	want := []int{0b000, 0b001, 0b101}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestQuickRouteProperties(t *testing.T) {
	f := func(a, b uint16) bool {
		src := int(a) % Nodes(10)
		dst := int(b) % Nodes(10)
		path := Route(src, dst)
		if path[0] != src || path[len(path)-1] != dst {
			return false
		}
		// Minimal: hops = Hamming distance.
		if len(path)-1 != Distance(src, dst) {
			return false
		}
		// Every hop crosses exactly one link.
		for i := 1; i < len(path); i++ {
			if !Adjacent(path[i-1], path[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxDistanceIsLogN(t *testing.T) {
	// §III: "the maximum number of connections between any two
	// processors is n".
	for n := 1; n <= 8; n++ {
		max := 0
		for a := 0; a < Nodes(n); a++ {
			if d := Distance(a, Nodes(n)-1-a^0); d > max {
				max = d
			}
			if d := Distance(0, a); d > max {
				max = d
			}
		}
		if max != n {
			t.Fatalf("n=%d: max distance %d, want %d", n, max, n)
		}
	}
}

func TestGray(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 256; i++ {
		g := Gray(i)
		if seen[g] {
			t.Fatalf("Gray not a bijection at %d", i)
		}
		seen[g] = true
		if GrayInverse(g) != i {
			t.Fatalf("GrayInverse(Gray(%d)) = %d", i, GrayInverse(g))
		}
	}
	// Consecutive codes differ in one bit.
	for i := 1; i < 256; i++ {
		if !Adjacent(Gray(i-1), Gray(i)) {
			t.Fatalf("Gray(%d) and Gray(%d) not adjacent", i-1, i)
		}
	}
}

func TestRingEmbedding(t *testing.T) {
	for n := 1; n <= 10; n++ {
		ring := Ring(n)
		size := Nodes(n)
		seen := make([]bool, size)
		for i, node := range ring {
			if seen[node] {
				t.Fatalf("n=%d: node %d appears twice", n, node)
			}
			seen[node] = true
			next := ring[(i+1)%size]
			if size > 1 && !Adjacent(node, next) {
				t.Fatalf("n=%d: ring positions %d,%d map to non-adjacent nodes %d,%d", n, i, i+1, node, next)
			}
		}
	}
}

func TestMeshEmbedding2D(t *testing.T) {
	m, err := NewMesh(8, 4) // 8×4 mesh on a 5-cube
	if err != nil {
		t.Fatal(err)
	}
	if m.CubeDim() != 5 {
		t.Fatalf("cube dim = %d, want 5", m.CubeDim())
	}
	seen := map[int]bool{}
	for x := 0; x < 8; x++ {
		for y := 0; y < 4; y++ {
			id, err := m.Node(x, y)
			if err != nil {
				t.Fatal(err)
			}
			if seen[id] {
				t.Fatalf("duplicate node %d", id)
			}
			seen[id] = true
			c := m.Coord(id)
			if c[0] != x || c[1] != y {
				t.Fatalf("Coord(Node(%d,%d)) = %v", x, y, c)
			}
			// Dilation 1, including torus wraparound.
			right, _ := m.Node((x+1)%8, y)
			up, _ := m.Node(x, (y+1)%4)
			if !Adjacent(id, right) || !Adjacent(id, up) {
				t.Fatalf("mesh neighbor of (%d,%d) not cube-adjacent", x, y)
			}
		}
	}
}

func TestMeshEmbedding3D(t *testing.T) {
	m, err := NewMesh(4, 4, 4) // 4×4×4 torus on a 6-cube
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			for z := 0; z < 4; z++ {
				id, _ := m.Node(x, y, z)
				for axis := 0; axis < 3; axis++ {
					c := []int{x, y, z}
					c[axis] = (c[axis] + 1) % 4
					nb, _ := m.Node(c[0], c[1], c[2])
					if !Adjacent(id, nb) {
						t.Fatalf("3D torus step not adjacent at (%d,%d,%d) axis %d", x, y, z, axis)
					}
				}
			}
		}
	}
}

func TestMeshErrors(t *testing.T) {
	if _, err := NewMesh(6); err == nil {
		t.Fatal("non-power-of-two extent accepted")
	}
	if _, err := NewMesh(1<<8, 1<<8); err == nil {
		t.Fatal("oversized mesh accepted (needs 16-cube)")
	}
	m, _ := NewMesh(4, 4)
	if _, err := m.Node(4, 0); err == nil {
		t.Fatal("out-of-range coordinate accepted")
	}
	if _, err := m.Node(1); err == nil {
		t.Fatal("wrong coordinate count accepted")
	}
}

func TestButterfly(t *testing.T) {
	b := Butterfly{N: 4}
	if b.Stages() != 4 {
		t.Fatal("stages wrong")
	}
	// Stage 0 exchanges across the highest dimension.
	if p, _ := b.Partner(0, 0); p != 8 {
		t.Fatalf("partner(0,0) = %d, want 8", p)
	}
	if p, _ := b.Partner(0, 3); p != 1 {
		t.Fatalf("partner(0,3) = %d, want 1", p)
	}
	// All exchanges are nearest-neighbor, and partnering is symmetric.
	for s := 0; s < 4; s++ {
		for id := 0; id < 16; id++ {
			p, err := b.Partner(id, s)
			if err != nil {
				t.Fatal(err)
			}
			if !Adjacent(id, p) {
				t.Fatalf("butterfly exchange %d↔%d not adjacent", id, p)
			}
			back, _ := b.Partner(p, s)
			if back != id {
				t.Fatalf("butterfly not symmetric at stage %d", s)
			}
		}
	}
	if _, err := b.Partner(0, 4); err == nil {
		t.Fatal("out-of-range stage accepted")
	}
}

func TestBroadcastTree(t *testing.T) {
	for _, root := range []int{0, 5, 15} {
		n := 4
		parent, depth := BroadcastTree(root, n)
		if parent[root] != root || depth[root] != 0 {
			t.Fatalf("root not its own parent")
		}
		for id := 0; id < Nodes(n); id++ {
			if id == root {
				continue
			}
			if !Adjacent(id, parent[id]) {
				t.Fatalf("parent link %d→%d not a cube edge", id, parent[id])
			}
			if depth[parent[id]] != depth[id]-1 {
				t.Fatalf("depth not monotone at %d", id)
			}
			if depth[id] > n {
				t.Fatalf("depth %d exceeds cube dimension", depth[id])
			}
		}
	}
}

func TestChildrenConsistentWithParent(t *testing.T) {
	root, n := 3, 5
	parent, _ := BroadcastTree(root, n)
	count := 0
	for id := 0; id < Nodes(n); id++ {
		for _, c := range Children(id, root, n) {
			if parent[c] != id {
				t.Fatalf("child %d of %d disagrees with parent array", c, id)
			}
			count++
		}
	}
	if count != Nodes(n)-1 {
		t.Fatalf("tree has %d edges, want %d", count, Nodes(n)-1)
	}
}

func TestSubcube(t *testing.T) {
	// Eight nodes per module: nodes 0..7 are subcube 0, 8..15 subcube 1.
	if SubcubeOf(7, 3) != 0 || SubcubeOf(8, 3) != 1 || SubcubeOf(4095, 3) != 511 {
		t.Fatal("subcube grouping wrong")
	}
}

func TestQuickGrayAdjacency(t *testing.T) {
	f := func(i uint16) bool {
		a := int(i)
		return Adjacent(Gray(a), Gray(a+1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteTrivialAndDimOfEdge(t *testing.T) {
	path := Route(5, 5)
	if len(path) != 1 || path[0] != 5 {
		t.Fatalf("self route = %v", path)
	}
	if _, err := DimOf(0); err == nil {
		t.Fatal("DimOf(0) accepted")
	}
	if _, err := DimOf(-8); err == nil {
		t.Fatal("DimOf(-8) accepted")
	}
	if d, err := DimOf(1); err != nil || d != 0 {
		t.Fatalf("DimOf(1) = %d, %v", d, err)
	}
}

func TestGrayInverseZero(t *testing.T) {
	if GrayInverse(0) != 0 {
		t.Fatal("GrayInverse(0) != 0")
	}
}

func TestMeshSingleAxis(t *testing.T) {
	m, err := NewMesh(16)
	if err != nil {
		t.Fatal(err)
	}
	if m.CubeDim() != 4 {
		t.Fatalf("dim = %d", m.CubeDim())
	}
	// A 1-D mesh with wraparound is exactly the Gray-code ring.
	ring := Ring(4)
	for i := 0; i < 16; i++ {
		id, err := m.Node(i)
		if err != nil {
			t.Fatal(err)
		}
		if id != ring[i] {
			t.Fatalf("1-D mesh differs from ring at %d", i)
		}
	}
}

func TestRingSkipping(t *testing.T) {
	// With nothing skipped the skipping ring IS the Gray ring.
	for n := 1; n <= 6; n++ {
		full := RingSkipping(n, func(int) bool { return false })
		want := Ring(n)
		if len(full) != len(want) {
			t.Fatalf("n=%d: full skipping ring has %d nodes, want %d", n, len(full), len(want))
		}
		for i := range want {
			if full[i] != want[i] {
				t.Fatalf("n=%d: position %d is %d, want %d", n, i, full[i], want[i])
			}
		}
	}
	// Skipping preserves Gray order and drops exactly the skipped nodes
	// — Heal leans on this to keep surviving images in a stable
	// relative order no matter which boards have been retired.
	skip := map[int]bool{2: true, 7: true, 5: true}
	ring := RingSkipping(3, func(i int) bool { return skip[i] })
	if len(ring) != 5 {
		t.Fatalf("ring has %d survivors, want 5: %v", len(ring), ring)
	}
	pos := map[int]int{}
	for i, v := range ring {
		if skip[v] {
			t.Fatalf("skipped node %d survived: %v", v, ring)
		}
		pos[v] = i
	}
	full := Ring(3)
	last := -1
	for _, v := range full {
		if skip[v] {
			continue
		}
		if pos[v] <= last {
			t.Fatalf("node %d out of Gray order in %v", v, ring)
		}
		last = pos[v]
	}
}
