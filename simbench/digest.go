package main

import (
	"fmt"
	"time"
)

// digest is an order-independent fingerprint of a set of per-flow
// results: each (flow, FCT) pair is hashed on its own and the hashes are
// summed, so the value depends on which flows finished when, never on
// the order completions were observed in (sharded runs complete flows
// on several goroutines). An unfinished flow contributes its ID with
// FCT 0.
type digest uint64

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// add folds one flow's result in.
func (d *digest) add(id uint64, fct time.Duration) {
	*d += digest(mix64(mix64(id) ^ uint64(fct)))
}

// addAll folds a spec-ordered FCT slice in; flow IDs are 1-based spec
// positions, as transport.FlowIDGen and flowsim hand them out.
func (d *digest) addAll(fcts []time.Duration) {
	for i, f := range fcts {
		d.add(uint64(i+1), f)
	}
}

// combine folds a sub-digest (one cell or one seed) in, salted by its
// position so that swapping two cells' results changes the value.
func (d *digest) combine(part digest, salt uint64) {
	*d += digest(mix64(uint64(part) ^ mix64(salt+1)))
}

func (d digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }
