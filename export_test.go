package pando

import (
	"fmt"
	"strings"
	"time"
)

// Diagnostics renders where the stream stands — the lender's counters,
// the pool's worker rows, each device's accounting and credit window —
// as text for the log of a stream that stopped making progress.
func (p *Pando[I, O]) Diagnostics() string {
	var b strings.Builder
	lent, failed, subs, ended := p.m.LenderStats()
	fmt.Fprintf(&b, "lender: %d lent, %d awaiting re-lend, %d sub-streams (%d ended)\n", lent, failed, subs, ended)
	for _, w := range p.pool.Workers() {
		fmt.Fprintf(&b, "pool: %+v\n", w)
	}
	for _, s := range p.Stats() {
		fmt.Fprintf(&b, "device %s: alive=%v items=%d in-flight=%d/%d wire=%s last=%s\n",
			s.Name, s.Alive, s.Items, s.InFlight, s.Credits, s.Wire, s.LastSeen.Format(time.StampMilli))
	}
	return b.String()
}
