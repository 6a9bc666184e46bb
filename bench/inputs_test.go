package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

// inputHashes digests every workload's generated inputs for one seed:
// (MCS, PSDU length, payload, channel seed) for the PHY workloads, the
// payload pools for the gateway.
func inputHashes(seed int64) map[string]string {
	draws := func(d *drawer, n int) string {
		h := sha256.New()
		for i := 0; i < n; i++ {
			in := d.next()
			binary.Write(h, binary.LittleEndian, [3]int64{int64(in.MCS), int64(in.PSDULen), in.ChanSeed})
			h.Write(in.Payload)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	pools := sha256.New()
	for _, pool := range gwPools(seed) {
		for _, p := range pool {
			pools.Write(p)
		}
	}
	return map[string]string{
		"rx-mcs0-1x4":     draws(rxLight.drawer(seed), 2*rxPoolSize),
		"rx-mcs12-2x2-ml": draws(rxML.drawer(seed), 2*rxPoolSize),
		"link-udp-mixed":  draws(linkDrawer(seed), 4*len(linkMCS)*len(linkSizes)),
		"gw-bulk-small":   fmt.Sprintf("%x", pools.Sum(nil)),
	}
}

func TestInputsFollowSeed(t *testing.T) {
	a, b, c := inputHashes(7), inputHashes(7), inputHashes(8)
	for _, w := range workloads {
		if a[w.name] == "" {
			t.Fatalf("%s: no inputs hashed", w.name)
		}
		if a[w.name] != b[w.name] {
			t.Errorf("%s: seed 7 generated different inputs twice", w.name)
		}
		if a[w.name] == c[w.name] {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
	}
}

// Every deck holds each MCS × size pair once, so runs differ only in order.
func TestLinkMixIsBalanced(t *testing.T) {
	d := linkDrawer(3)
	combos := len(linkMCS) * len(linkSizes)
	for deck := 0; deck < 3; deck++ {
		seen := map[[2]int]int{}
		for i := 0; i < combos; i++ {
			in := d.next()
			seen[[2]int{in.MCS, in.PSDULen}]++
		}
		if len(seen) != combos {
			t.Fatalf("deck %d covers %d of %d MCS × size pairs: %v", deck, len(seen), combos, seen)
		}
	}
}
