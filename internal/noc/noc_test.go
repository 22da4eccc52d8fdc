package noc

import (
	"errors"
	"math/rand"
	"testing"
)

type capture struct {
	got []struct {
		cycle uint64
		port  OutPort
		m     *Message
	}
}

func (c *capture) sink(cycle uint64, port OutPort, m *Message) {
	c.got = append(c.got, struct {
		cycle uint64
		port  OutPort
		m     *Message
	}{cycle, port, m})
}

func grid(w, h int) (*Grid, *capture) {
	c := &capture{}
	return New(w, h, Config{PortBW: 2, QueueCap: 8}, c.sink), c
}

func TestSingleHopDelivery(t *testing.T) {
	g, c := grid(2, 2)
	m := &Message{Src: 0, Dst: 1, VC: VCOperand}
	if !g.Send(0, m) {
		t.Fatal("send failed")
	}
	g.Tick(1) // hop 0 -> 1
	g.Tick(2) // deliver at 1
	if len(c.got) != 1 {
		t.Fatalf("delivered %d, want 1", len(c.got))
	}
	if c.got[0].m.Hops != 1 || c.got[0].port != PortPE {
		t.Errorf("hops=%d port=%v", c.got[0].m.Hops, c.got[0].port)
	}
}

func TestLocalMemDelivery(t *testing.T) {
	g, c := grid(1, 1)
	m := &Message{Src: 0, Dst: 0, ToMem: true, VC: VCMemory}
	if !g.Send(0, m) {
		t.Fatal("send failed")
	}
	g.Tick(1)
	if len(c.got) != 1 || c.got[0].port != PortMem {
		t.Fatalf("local mem delivery failed: %+v", c.got)
	}
	if c.got[0].m.Hops != 0 {
		t.Errorf("hops = %d, want 0", c.got[0].m.Hops)
	}
}

func TestDimensionOrderRouting(t *testing.T) {
	g, c := grid(4, 4)
	// From (0,0) to (3,2): 3 east hops, 2 south hops = 5 hops.
	m := &Message{Src: 0, Dst: 2*4 + 3, VC: VCOperand}
	g.Send(0, m)
	for cy := uint64(1); cy <= 10; cy++ {
		g.Tick(cy)
	}
	if len(c.got) != 1 {
		t.Fatalf("delivered %d, want 1", len(c.got))
	}
	if got := c.got[0].m.Hops; got != 5 {
		t.Errorf("hops = %d, want 5", got)
	}
	if got := g.Distance(0, 2*4+3); got != 5 {
		t.Errorf("Distance = %d, want 5", got)
	}
}

func TestOneHopPerCycle(t *testing.T) {
	g, c := grid(4, 1)
	m := &Message{Src: 0, Dst: 3, VC: VCOperand}
	g.Send(0, m)
	g.Tick(1)
	g.Tick(2)
	if len(c.got) != 0 {
		t.Fatal("message travelled 3 hops in 2 cycles")
	}
	g.Tick(3)
	g.Tick(4)
	if len(c.got) != 1 {
		t.Fatalf("message should arrive by cycle 4, got %d", len(c.got))
	}
}

func TestBandwidthLimit(t *testing.T) {
	g, c := grid(2, 1)
	// Five messages from 0 to 1: port BW 2 => three cycles of link time.
	for i := 0; i < 5; i++ {
		if !g.Send(0, &Message{Src: 0, Dst: 1, VC: VCOperand}) {
			t.Fatalf("send %d failed", i)
		}
	}
	g.Tick(1)
	g.Tick(2) // first 2 delivered at 2
	if len(c.got) != 2 {
		t.Fatalf("after 2 ticks delivered %d, want 2", len(c.got))
	}
	for cy := uint64(3); cy <= 6; cy++ {
		g.Tick(cy)
	}
	if len(c.got) != 5 {
		t.Fatalf("total delivered %d, want 5", len(c.got))
	}
}

func TestInjectionBackpressure(t *testing.T) {
	g, _ := grid(2, 1)
	ok := 0
	for i := 0; i < 12; i++ {
		if g.Send(0, &Message{Src: 0, Dst: 1, VC: VCOperand}) {
			ok++
		}
	}
	if ok != 8 {
		t.Errorf("injected %d, want 8 (queue cap)", ok)
	}
	if g.Stats().InjectFull != 4 {
		t.Errorf("inject-full count = %d, want 4", g.Stats().InjectFull)
	}
}

func TestVirtualChannelsIndependent(t *testing.T) {
	g, c := grid(2, 1)
	// Fill VC0's queue completely; VC1 must still flow.
	for i := 0; i < 8; i++ {
		g.Send(0, &Message{Src: 0, Dst: 1, VC: VCOperand})
	}
	if !g.Send(0, &Message{Src: 0, Dst: 1, ToMem: true, VC: VCMemory}) {
		t.Fatal("VC1 injection should succeed despite full VC0")
	}
	for cy := uint64(1); cy <= 8; cy++ {
		g.Tick(cy)
	}
	mem := 0
	for _, d := range c.got {
		if d.m.VC == VCMemory {
			mem++
		}
	}
	if mem != 1 {
		t.Errorf("memory VC deliveries = %d, want 1", mem)
	}
	if len(c.got) != 9 {
		t.Errorf("total = %d, want 9", len(c.got))
	}
}

func TestPendingDrains(t *testing.T) {
	g, _ := grid(4, 4)
	for i := 0; i < 6; i++ {
		g.Send(0, &Message{Src: 0, Dst: 15, VC: VCOperand})
	}
	if g.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", g.Pending())
	}
	for cy := uint64(1); cy <= 20; cy++ {
		g.Tick(cy)
	}
	if g.Pending() != 0 {
		t.Errorf("pending = %d after drain, want 0", g.Pending())
	}
	st := g.Stats()
	if st.Delivered != 6 || st.TotalHops != 6*6 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		g, c := grid(4, 4)
		seq := 0
		for cy := uint64(0); cy < 40; cy++ {
			for s := 0; s < 4; s++ {
				g.Send(cy, &Message{Src: s, Dst: 15 - s, VC: int(cy) % 2, Payload: seq})
				seq++
			}
			g.Tick(cy + 1)
		}
		for cy := uint64(41); cy < 80; cy++ {
			g.Tick(cy)
		}
		var order []int
		for _, d := range c.got {
			order = append(order, d.m.Payload.(int))
		}
		return order
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic delivery order at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{PortBW: 0, QueueCap: 8}).Validate(); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if err := (Config{PortBW: 2, QueueCap: 0}).Validate(); err == nil {
		t.Error("zero queue accepted")
	}
}

// Property: random messages always arrive, at their destination, with hops
// equal to the Manhattan distance, regardless of interleaving.
func TestRandomRoutingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		w := 1 + rng.Intn(4)
		h := 1 + rng.Intn(4)
		g, c := New(w, h, Config{PortBW: 2, QueueCap: 8}, nil), &capture{}
		g.sink = c.sink
		type sent struct{ src, dst int }
		var lots []sent
		n := 1 + rng.Intn(20)
		cycle := uint64(0)
		for k := 0; k < n; k++ {
			src, dst := rng.Intn(w*h), rng.Intn(w*h)
			m := &Message{Src: src, Dst: dst, VC: rng.Intn(2), ToMem: rng.Intn(2) == 0, Payload: k}
			for !g.Send(cycle, m) {
				g.Tick(cycle + 1)
				cycle++
			}
			lots = append(lots, sent{src, dst})
			if rng.Intn(2) == 0 {
				g.Tick(cycle + 1)
				cycle++
			}
		}
		for i := 0; i < 200 && g.Pending() > 0; i++ {
			g.Tick(cycle + 1)
			cycle++
		}
		if len(c.got) != n {
			t.Fatalf("trial %d: delivered %d of %d", trial, len(c.got), n)
		}
		for _, d := range c.got {
			k := d.m.Payload.(int)
			want := g.Distance(lots[k].src, lots[k].dst)
			if d.m.Hops != want {
				t.Fatalf("trial %d msg %d: hops %d, want %d", trial, k, d.m.Hops, want)
			}
			if d.m.Dst != lots[k].dst {
				t.Fatalf("trial %d msg %d: wrong destination", trial, k)
			}
		}
	}
}

// TestBadMessageLatchesError checks the old panic paths now latch
// structured errors and refuse the message.
func TestBadMessageLatchesError(t *testing.T) {
	g, _ := grid(2, 2)
	if g.Send(0, &Message{Src: 0, Dst: 1, VC: 7}) {
		t.Fatal("bad-VC send must be refused")
	}
	if err := g.Err(); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("want ErrBadMessage, got %v", err)
	}
	g2, _ := grid(2, 2)
	if g2.Send(0, &Message{Src: 0, Dst: 9, VC: VCOperand}) {
		t.Fatal("off-grid destination must be refused")
	}
	if err := g2.Err(); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("want ErrBadMessage, got %v", err)
	}
}
