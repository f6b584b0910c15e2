package experiments

import (
	"io"
	"sort"
	"time"

	"zmapgo/internal/cyclic"
	"zmapgo/internal/dedup"
	"zmapgo/internal/netsim"
	"zmapgo/internal/packet"
	"zmapgo/internal/ratelimit"
)

// Fig5Row is one (scan rate, window size) cell of Figure 5.
type Fig5Row struct {
	GbpsLabel   string
	RatePPS     float64
	WindowSize  int
	Responses   int // total classified responses incl. duplicates
	Duplicates  int // duplicate responses emitted by hosts
	LeakedDups  int // duplicates the window failed to flag
	ResidualPct float64
}

// fig5Event is one response arrival in the virtual-time stream.
type fig5Event struct {
	at  float64 // seconds since scan start
	ip  uint32
	dup bool
}

// Fig5 regenerates Figure 5: residual duplicate rate versus sliding
// window size, at several scan rates. The workload replays scanSeconds
// of scanning (as a full-Internet scan would sustain) through the
// simulated Internet's blowback model: every response (primary and
// duplicate) is placed on a virtual timeline — probes paced at the line
// rate, duplicates spaced by the blowback gap — and the merged stream is
// driven through the real dedup.Window. A duplicate "leaks" when the
// window has already evicted its key. Faster scans interleave more
// responses between a host's duplicates, so they need larger windows —
// the paper's crossover.
//
// The paper's result: a 10^6-entry window (the ZMap default) eliminates
// nearly all duplicates, and lower scan rates can make do with smaller
// windows.
func Fig5(w io.Writer, scanSeconds float64, seed uint64) []Fig5Row {
	header(w, "Figure 5", "sliding-window duplicate rate vs window size")
	cfg := netsim.DefaultConfig(seed)
	cfg.ProbeLoss, cfg.ResponseLoss, cfg.PathBadFraction = 0, 0, 0
	cfg.BlowbackGap = 100 * time.Millisecond
	in := netsim.New(cfg)

	rates := []struct {
		label string
		gbps  float64
	}{
		{"0.1 Gbps", 0.1e9},
		{"0.5 Gbps", 0.5e9},
		{"1.0 Gbps", 1.0e9},
	}
	windows := []int{100, 1_000, 10_000, 100_000, 1_000_000}
	opts := packet.BuildOptions(packet.LayoutMSS, 0)
	wire := packet.WireLen(packet.SYNFrameLen(packet.LayoutMSS))

	// Target order: a real cyclic permutation over the space the fastest
	// rate can cover, like a scan would use.
	maxPPS := ratelimit.BandwidthToRate(rates[len(rates)-1].gbps, wire)
	maxTargets := int(maxPPS * scanSeconds)
	group, err := cyclic.GroupForOrder(uint64(maxTargets))
	if err != nil {
		panic(err)
	}
	cycle := cyclic.Cycle{Group: group, Generator: cyclic.SmallestPrimitiveRoot(group), Offset: seed % group.Order()}

	var rows []Fig5Row
	printf(w, "%-9s %10s %10s %10s %10s %12s\n",
		"rate", "window", "responses", "dups", "leaked", "residual")
	for _, rate := range rates {
		pps := ratelimit.BandwidthToRate(rate.gbps, wire)
		numTargets := int(pps * scanSeconds)
		events := buildFig5Events(in, cycle, numTargets, pps, opts, cfg.BlowbackGap)
		for _, size := range windows {
			row := replayFig5(events, size)
			row.GbpsLabel = rate.label
			row.RatePPS = pps
			rows = append(rows, row)
			printf(w, "%-9s %10d %10d %10d %10d %11.3f%%\n",
				row.GbpsLabel, row.WindowSize, row.Responses, row.Duplicates,
				row.LeakedDups, row.ResidualPct)
		}
	}
	printf(w, "paper: window 10^6 eliminates nearly all duplicates; smaller windows suffice at lower rates\n")
	return rows
}

// buildFig5Events lays every response on the virtual timeline.
func buildFig5Events(in *netsim.Internet, cycle cyclic.Cycle, numTargets int, pps float64, opts []byte, gap time.Duration) []fig5Event {
	var events []fig5Event
	it := cycle.Iterate(0, cycle.Group.Order(), 1)
	idx := 0
	for idx < numTargets {
		elem, ok := it.Next()
		if !ok {
			break
		}
		if elem > uint64(numTargets) {
			continue // skip elements outside the target space
		}
		ip := uint32(elem - 1)
		sendAt := float64(idx) / pps
		idx++
		if !in.ExpectedSYNACK(ip, 80, opts) {
			continue
		}
		rtt := in.RTT(ip).Seconds()
		events = append(events, fig5Event{at: sendAt + rtt, ip: ip})
		if in.Middlebox(ip) && !in.ServiceOpen(ip, 80) {
			continue
		}
		for d := 1; d <= in.BlowbackCount(ip, 80); d++ {
			events = append(events, fig5Event{
				at:  sendAt + rtt + float64(d)*gap.Seconds(),
				ip:  ip,
				dup: true,
			})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
	return events
}

// replayFig5 drives the event stream through a fresh window.
func replayFig5(events []fig5Event, size int) Fig5Row {
	win := dedup.NewWindow(size)
	row := Fig5Row{WindowSize: size, Responses: len(events)}
	for _, e := range events {
		seen := win.Seen(e.ip, 80)
		if e.dup {
			row.Duplicates++
			if !seen {
				row.LeakedDups++
			}
		}
	}
	if row.Responses > 0 {
		row.ResidualPct = float64(row.LeakedDups) / float64(row.Responses) * 100
	}
	return row
}

// DedupMemRow is one line of the §4.1 dedup memory table.
type DedupMemRow struct {
	Design string
	Bytes  uint64
	Note   string
}

// DedupMem regenerates the §4.1 memory arithmetic: the 2^32 bitmap costs
// 512 MB, a 48-bit bitmap would cost 35 TB, and the full sliding window
// at the default size costs its ring plus its open-addressed index:
// tens of megabytes.
func DedupMem(w io.Writer) []DedupMemRow {
	header(w, "Table: dedup memory", "bitmap vs sliding window (§4.1)")
	win := dedup.NewWindow(dedup.DefaultWindowSize)
	// Fill the window with spread-out keys to measure steady-state memory.
	for i := 0; i < dedup.DefaultWindowSize; i++ {
		win.Seen(uint32(i)*2654435761, uint16(i*31))
	}
	rows := []DedupMemRow{
		{"bitmap 2^32 (single port)", dedup.FullBitmapBytes(32), "paper: 512 MB"},
		{"bitmap 2^48 (IP x port)", dedup.FullBitmapBytes(48), "paper: 35 TB - infeasible"},
		{"sliding window 10^6 (open-addressed ring)", win.MemoryBytes(), "default; Figure 5 shows ~zero residual dups"},
	}
	for _, r := range rows {
		printf(w, "%-42s %16d bytes  (%s)\n", r.Design, r.Bytes, r.Note)
	}
	return rows
}
