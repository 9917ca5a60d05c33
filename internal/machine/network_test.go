package machine

import (
	"math"
	"testing"
)

func TestEthernetSerializes(t *testing.T) {
	n := NewEthernet(4)
	a1 := n.Transfer(0, 0, 1, 12500) // 12.5 kB at 1.25 MB/s = 10 ms
	if a1 < 0.010 {
		t.Fatalf("first transfer arrives at %g", a1)
	}
	// A simultaneous transfer between a DIFFERENT pair still queues on
	// the shared medium.
	a2 := n.Transfer(0, 2, 3, 12500)
	if a2 <= a1 {
		t.Fatalf("shared medium did not serialize: %g <= %g", a2, a1)
	}
}

func TestEthernetBurstPenalty(t *testing.T) {
	// A large message meeting a busy medium pays the overflow penalty;
	// two half-size messages do not.
	big := NewEthernet(4)
	big.Transfer(0, 0, 1, 6400)
	aBig := big.Transfer(0, 2, 3, 6400)

	small := NewEthernet(4)
	small.Transfer(0, 0, 1, 6400) // same first occupancy
	b1 := small.Transfer(0, 2, 3, 3200)
	b2 := small.Transfer(0, 2, 3, 3200)
	last := math.Max(b1, b2)
	if aBig <= last {
		t.Fatalf("burst penalty missing: big %g <= split %g", aBig, last)
	}
}

func TestSwitchedPairsIndependent(t *testing.T) {
	n := NewATM(4)
	a1 := n.Transfer(0, 0, 1, 100000)
	a2 := n.Transfer(0, 2, 3, 100000)
	if math.Abs(a1-a2) > 1e-12 {
		t.Fatalf("disjoint pairs should not contend on a switch: %g vs %g", a1, a2)
	}
	// Same source port serializes.
	a3 := n.Transfer(0, 0, 2, 100000)
	if a3 <= a1 {
		t.Fatalf("output port contention missing: %g <= %g", a3, a1)
	}
}

func TestAllnodeFasterThanPrototype(t *testing.T) {
	f := NewAllnodeF(8)
	s := NewAllnodeS(8)
	af := f.Transfer(0, 0, 1, 6400)
	as := s.Transfer(0, 0, 1, 6400)
	if af >= as {
		t.Fatalf("ALLNODE-F (%g) should beat ALLNODE-S (%g)", af, as)
	}
	// Roughly 2x the link rate.
	if r := (as - 90e-6) / (af - 80e-6); r < 1.6 || r > 2.4 {
		t.Errorf("link-rate ratio %.2f, want ~2", r)
	}
}

func TestTorusRouting(t *testing.T) {
	tor := NewT3DTorus(16).(*Torus)
	// Adjacent ranks in x: single hop.
	if p := tor.route(3, 4); len(p) != 2 {
		t.Fatalf("adjacent route %v", p)
	}
	// Wraparound: 0 -> 7 in a ring of 8 is one hop backwards.
	if p := tor.route(0, 7); len(p) != 2 {
		t.Fatalf("wraparound route %v", p)
	}
	// 0 -> 8+1: one y hop + one x hop = 2 hops.
	if p := tor.route(0, 9); len(p) != 3 {
		t.Fatalf("xy route %v", p)
	}
	// Dimension order: x is resolved before y.
	p := tor.route(0, 9)
	if p[1] != 1 {
		t.Fatalf("not dimension-ordered: %v", p)
	}
}

func TestTorusNeighbourTransfersParallel(t *testing.T) {
	tor := NewT3DTorus(16)
	a1 := tor.Transfer(0, 0, 1, 6400)
	a2 := tor.Transfer(0, 2, 3, 6400)
	if math.Abs(a1-a2) > 1e-12 {
		t.Fatalf("disjoint torus links should not contend: %g vs %g", a1, a2)
	}
	// Same link used twice serializes.
	b := tor.Transfer(0, 0, 1, 6400)
	if b <= a1 {
		t.Fatalf("link contention missing: %g <= %g", b, a1)
	}
	// The torus is far faster than any LACE network for the same bytes.
	eth := NewEthernet(16).Transfer(0, 0, 1, 6400)
	if a1*10 > eth {
		t.Fatalf("torus %g not much faster than Ethernet %g", a1, eth)
	}
}

func TestTorusSelfTransferPanics(t *testing.T) {
	tor := NewT3DTorus(16)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	tor.Transfer(0, 2, 2, 100)
}

func TestFDDITokenLatency(t *testing.T) {
	f := NewFDDI(8)
	// 100 Mb/s = 12.5 MB/s: 12500 B takes 1 ms + token overhead.
	a := f.Transfer(0, 0, 1, 12500)
	if a < 0.001 || a > 0.01 {
		t.Fatalf("FDDI transfer time %g", a)
	}
}

func TestNames(t *testing.T) {
	for _, n := range []Network{NewEthernet(4), NewFDDI(4), NewATM(4), NewAllnodeF(4), NewAllnodeS(4), NewSPSwitch(4), NewT3DTorus(4)} {
		if n.Name() == "" {
			t.Error("empty network name")
		}
	}
}
