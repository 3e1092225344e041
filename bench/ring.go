package main

// Ground truth for a Chord ring, computed from the node addresses alone
// (p2.Hash order), and the checks made against it: ring correctness
// before a window opens and the true owner of every looked-up key.

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"

	"p2"
)

// truth is the ideal ring over a fixed set of addresses.
type truth struct {
	ids   []p2.ID  // node identifiers, ascending
	addrs []string // addrs[i] owns ids[i]
	next  map[string]string
}

func newTruth(addrs []string) *truth {
	t := &truth{addrs: append([]string(nil), addrs...), next: make(map[string]string, len(addrs))}
	sort.Slice(t.addrs, func(i, j int) bool { return p2.Hash(t.addrs[i]).Less(p2.Hash(t.addrs[j])) })
	t.ids = make([]p2.ID, len(t.addrs))
	for i, a := range t.addrs {
		t.ids[i] = p2.Hash(a)
		t.next[a] = t.addrs[(i+1)%len(t.addrs)]
	}
	return t
}

// owner is the Chord successor of key: the first node identifier at or
// past it, wrapping to the smallest.
func (t *truth) owner(key p2.ID) string {
	i := sort.Search(len(t.ids), func(i int) bool { return !t.ids[i].Less(key) })
	if i == len(t.ids) {
		i = 0
	}
	return t.addrs[i]
}

// checkRing compares every node's bestSucc with the ideal successor. It
// returns a digest of the observed ring and an error naming the nodes
// that have not converged.
func (t *truth) checkRing(nodes []*p2.Handle) (string, error) {
	h := sha256.New()
	var bad []string
	for _, n := range nodes {
		got := "?"
		if rows := n.Scan("bestSucc"); len(rows) == 1 {
			got = rows[0].Field(2).AsStr()
		}
		fmt.Fprintf(h, "%s>%s;", n.Addr(), got)
		if got != t.next[n.Addr()] {
			bad = append(bad, fmt.Sprintf("%s (bestSucc %s, want %s)", n.Addr(), got, t.next[n.Addr()]))
		}
	}
	digest := fmt.Sprintf("%x", h.Sum(nil)[:8])
	if len(bad) > 0 {
		shown := bad
		if len(shown) > 8 {
			shown = shown[:8]
		}
		return digest, fmt.Errorf("ring not converged: %d of %d nodes wrong: %s",
			len(bad), len(nodes), strings.Join(shown, ", "))
	}
	return digest, nil
}
