package gpusim

import "testing"

func TestAllReduceDegenerate(t *testing.T) {
	for _, ic := range Presets() {
		if d := ic.AllReduceUS(1<<20, 1); d != 0 {
			t.Errorf("%s: all-reduce over 1 server costs %v µs, want 0", ic.Name, d)
		}
		if d := ic.AllReduceUS(0, 8); d != 0 {
			t.Errorf("%s: all-reduce of 0 bytes costs %v µs, want 0", ic.Name, d)
		}
	}
}

func TestAllReduceGrowsWithBytesAndServers(t *testing.T) {
	ic := Ethernet10G()
	if ic.AllReduceUS(2<<20, 4) <= ic.AllReduceUS(1<<20, 4) {
		t.Error("all-reduce duration not monotone in bytes")
	}
	if ic.AllReduceUS(1<<20, 8) <= ic.AllReduceUS(1<<20, 2) {
		t.Error("ring all-reduce duration not monotone in server count")
	}
}

func TestBandwidthOrdering(t *testing.T) {
	// For a large model the faster links must win.
	bytes := int64(64 << 20)
	eth10 := Ethernet10G().AllReduceUS(bytes, 4)
	eth25 := Ethernet25G().AllReduceUS(bytes, 4)
	ib := InfiniBandEDR().AllReduceUS(bytes, 4)
	if !(ib < eth25 && eth25 < eth10) {
		t.Errorf("want IB < 25GbE < 10GbE, got %v, %v, %v", ib, eth25, eth10)
	}
}
