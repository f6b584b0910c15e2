package v6scan

import (
	"context"
	"math"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"zmapgo/internal/dedup"
	"zmapgo/internal/netsim"
	"zmapgo/internal/packet"
	"zmapgo/internal/target"
)

func TestParseHitlist(t *testing.T) {
	src := `
# seed hitlist
2001:db8::1
2001:db8::2   # router
2001:db8::1
2600:beef:0:1::77
`
	h, err := ParseHitlist(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 3 {
		t.Fatalf("len = %d, want 3 (deduplicated)", h.Len())
	}
	if netip.AddrFrom16(h.At(0)).String() != "2001:db8::1" {
		t.Errorf("order not preserved: %v", netip.AddrFrom16(h.At(0)))
	}
}

func TestParseHitlistErrors(t *testing.T) {
	bad := []string{
		"not-an-address\n",
		"10.0.0.1\n",        // IPv4
		"::ffff:10.0.0.1\n", // v4-mapped
		"",                  // empty
		"# only comments\n",
	}
	for _, src := range bad {
		if _, err := ParseHitlist(strings.NewReader(src)); err == nil {
			t.Errorf("ParseHitlist(%q) succeeded, want error", src)
		}
	}
}

// synthHitlist builds n distinct addresses under 2001:db8:1::/48.
func synthHitlist(t *testing.T, n int) *Hitlist {
	t.Helper()
	addrs := make([][16]byte, n)
	for i := range addrs {
		var a [16]byte
		a[0], a[1], a[2], a[3], a[5] = 0x20, 0x01, 0x0d, 0xb8, 1
		a[12] = byte(i >> 24)
		a[13] = byte(i >> 16)
		a[14] = byte(i >> 8)
		a[15] = byte(i)
		addrs[i] = a
	}
	h, err := NewHitlist(addrs)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func testScan(t *testing.T, seed uint64, n int, ports string, threads int) (Summary, []Result, *netsim.Internet) {
	t.Helper()
	simCfg := netsim.DefaultConfig(seed)
	simCfg.ProbeLoss, simCfg.ResponseLoss, simCfg.PathBadFraction = 0, 0, 0
	in := netsim.New(simCfg)
	link := netsim.NewLink(in, 1<<16, 0)
	t.Cleanup(link.Close)

	ps, err := target.ParsePorts(ports)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var results []Result
	s, err := New(Config{
		Hitlist:  synthHitlist(t, n),
		Ports:    ps,
		Seed:     int64(seed) + 1,
		Threads:  threads,
		Cooldown: 150 * time.Millisecond,
		Options:  packet.LayoutMSS,
		Emit: func(r Result) {
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		},
	}, link)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	return sum, append([]Result{}, results...), in
}

func TestV6ScanFindsServices(t *testing.T) {
	sum, results, in := testScan(t, 600, 4096, "443", 4)
	if sum.Sent != 4096 {
		t.Errorf("sent %d probes, want 4096", sum.Sent)
	}
	// Ground truth: count open+accepting services in the hitlist.
	opts := packet.BuildOptions(packet.LayoutMSS, 0)
	want := 0
	h := synthHitlist(t, 4096)
	for i := 0; i < h.Len(); i++ {
		addr := h.At(i)
		if in.ServiceOpen6(addr, 443) && acceptsForTest(in, addr, 443, opts) {
			want++
		}
	}
	got := 0
	for _, r := range results {
		if r.Success && !r.Repeat {
			got++
			b := r.Addr.As16()
			if !in.ServiceOpen6(b, 443) {
				t.Errorf("false positive %v", r.Addr)
			}
		}
	}
	if got != want {
		t.Errorf("found %d v6 services, ground truth %d", got, want)
	}
	if got == 0 {
		t.Fatal("no v6 services found at hitlist densities")
	}
	if sum.Successes != uint64(got) {
		t.Errorf("summary successes %d, emitted %d", sum.Successes, got)
	}
}

// acceptsForTest mirrors the sim's option gate via probing.
func acceptsForTest(in *netsim.Internet, addr [16]byte, port uint16, opts []byte) bool {
	src := defaultV6Source
	buf := packet.AppendEthernet(nil, packet.MAC{1}, packet.MAC{}, packet.EtherTypeIPv6)
	buf = packet.AppendIPv6(buf, packet.IPv6Header{NextHeader: packet.ProtocolTCP, HopLimit: 255, Src: src, Dst: addr}, packet.TCPHeaderLen+len(opts))
	buf, _ = packet.AppendTCP6(buf, packet.TCP{SrcPort: 1, DstPort: port, Seq: 5, Flags: packet.FlagSYN, Options: opts}, src, addr, nil)
	rs := in.Respond6(buf)
	if len(rs) == 0 {
		return false
	}
	f, err := packet.ParseIPv6(rs[0].Frame)
	return err == nil && f.TCP != nil && f.TCP.Flags == packet.FlagSYN|packet.FlagACK
}

func TestV6ScanRSTsReported(t *testing.T) {
	_, results, _ := testScan(t, 601, 4096, "81", 2)
	rsts := 0
	for _, r := range results {
		if r.Class == "rst" {
			if r.Success {
				t.Fatal("rst marked success")
			}
			rsts++
		}
	}
	if rsts == 0 {
		t.Error("no RSTs from closed ports on live hosts")
	}
}

func TestV6ScanDeterministic(t *testing.T) {
	sum1, res1, _ := testScan(t, 602, 2048, "80", 3)
	sum2, res2, _ := testScan(t, 602, 2048, "80", 3)
	if sum1.Successes != sum2.Successes || len(res1) != len(res2) {
		t.Errorf("runs differ: %d/%d vs %d/%d", sum1.Successes, len(res1), sum2.Successes, len(res2))
	}
}

func TestV6ScanMultiport(t *testing.T) {
	sum, results, _ := testScan(t, 603, 1024, "80,443", 2)
	if sum.Sent != 2048 {
		t.Errorf("sent %d, want 2048", sum.Sent)
	}
	ports := map[uint16]int{}
	for _, r := range results {
		if r.Success {
			ports[r.Port]++
		}
	}
	if ports[80] == 0 || ports[443] == 0 {
		t.Errorf("port spread %v; want hits on both", ports)
	}
}

func TestV6ScanShardsPartition(t *testing.T) {
	simCfg := netsim.DefaultConfig(604)
	simCfg.ProbeLoss, simCfg.ResponseLoss, simCfg.PathBadFraction = 0, 0, 0
	in := netsim.New(simCfg)
	ps, _ := target.ParsePorts("443")
	var total uint64
	seen := map[netip.Addr]int{}
	var mu sync.Mutex
	for idx := 0; idx < 2; idx++ {
		link := netsim.NewLink(in, 1<<16, 0)
		s, err := New(Config{
			Hitlist: synthHitlist(t, 2048), Ports: ps, Seed: 99,
			Shards: 2, ShardIndex: idx, Threads: 2,
			Cooldown: 150 * time.Millisecond,
			Emit: func(r Result) {
				if r.Success && !r.Repeat {
					mu.Lock()
					seen[r.Addr]++
					mu.Unlock()
				}
			},
		}, link)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		total += sum.Sent
		link.Close()
	}
	if total != 2048 {
		t.Errorf("shards sent %d, want 2048", total)
	}
	for addr, n := range seen {
		if n != 1 {
			t.Errorf("%v found by %d shards", addr, n)
		}
	}
}

// enobufsLink fails its first fail SendBatch calls with a bare kernel
// ENOBUFS, the errno a raw socket returns when its buffer is full.
type enobufsLink struct {
	*netsim.Link
	fail  int64
	calls atomic.Int64
}

func (l *enobufsLink) SendBatch(frames [][]byte) (int, error) {
	if l.calls.Add(1) <= l.fail {
		return 0, syscall.ENOBUFS
	}
	return l.Link.SendBatch(frames)
}

// TestV6RetriesTransientErrno checks that the v6 sender classifies send
// errors as the v4 engine does: a bare ENOBUFS is retried, not fatal.
func TestV6RetriesTransientErrno(t *testing.T) {
	in := netsim.New(netsim.DefaultConfig(607))
	link := &enobufsLink{Link: netsim.NewLink(in, 1<<10, 0), fail: 3}
	defer link.Close()
	ps, _ := target.ParsePorts("80")
	s, err := New(Config{
		Hitlist: synthHitlist(t, 64), Ports: ps, Seed: 7,
		Cooldown: 10 * time.Millisecond,
	}, link)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Sent != sum.Targets {
		t.Errorf("sent %d of %d targets after %d ENOBUFS failures", sum.Sent, sum.Targets, link.fail)
	}
	if got := link.calls.Load(); got < int64(sum.Targets)+link.fail {
		t.Errorf("%d SendBatch calls, want at least %d", got, int64(sum.Targets)+link.fail)
	}
}

func TestV6ConfigValidation(t *testing.T) {
	in := netsim.New(netsim.DefaultConfig(605))
	link := netsim.NewLink(in, 16, 0)
	defer link.Close()
	ps, _ := target.ParsePorts("80")
	h := synthHitlist(t, 4)
	cases := []Config{
		{Ports: ps},  // no hitlist
		{Hitlist: h}, // no ports
		{Hitlist: h, Ports: ps, Shards: 2, ShardIndex: 2}, // bad shard
	}
	if math.MaxInt > dedup.MaxWindowSize {
		cases = append(cases, Config{Hitlist: h, Ports: ps, DedupWindow: math.MaxInt}) // window too large
	}
	for i, cfg := range cases {
		if _, err := New(cfg, link); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := New(Config{Hitlist: h, Ports: ps}, nil); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := NewHitlist(nil); err == nil {
		t.Error("empty NewHitlist accepted")
	}
}

func BenchmarkV6Scan(b *testing.B) {
	simCfg := netsim.DefaultConfig(606)
	simCfg.ProbeLoss, simCfg.ResponseLoss, simCfg.PathBadFraction = 0, 0, 0
	in := netsim.New(simCfg)
	addrs := make([][16]byte, 4096)
	for i := range addrs {
		var a [16]byte
		a[0], a[1] = 0x20, 0x01
		a[14], a[15] = byte(i>>8), byte(i)
		addrs[i] = a
	}
	h, _ := NewHitlist(addrs)
	ps, _ := target.ParsePorts("443")
	for i := 0; i < b.N; i++ {
		link := netsim.NewLink(in, 1<<16, 0)
		s, err := New(Config{
			Hitlist: h, Ports: ps, Seed: int64(i) + 1, Threads: 4,
			Cooldown: 5 * time.Millisecond,
		}, link)
		if err != nil {
			b.Fatal(err)
		}
		sum, err := s.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		link.Close()
		b.ReportMetric(float64(sum.Successes), "services")
	}
}
