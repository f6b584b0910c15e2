package main

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"zmapgo/internal/packet"
)

// wire is what a benchmark transport forwards to: the batched send and
// receive paths, frame release, and ring statistics. netsim.Link, the
// null wire, and the reflector all satisfy it.
type wire interface {
	Send(frame []byte) error
	SendBatch(frames [][]byte) (int, error)
	Recv() <-chan []byte
	RecvBatch(dst [][]byte) int
	Release(frame []byte)
	Stats() (sent, received, dropped uint64)
}

// transport wraps the wire of a traced scan: it counts and times each
// SendBatch and RecvBatch call the engine makes into the span log.
// Untraced scans hand the wire to the engine directly.
//
// Every workload runs one sender thread, so send spans carry thread 0;
// the engine's receive dispatcher is one goroutine, so recv spans carry
// their drain sequence number.
type transport struct {
	w     wire
	spans *spanLog
	scan  int
	epoch time.Time

	sendCalls, sendFrames atomic.Uint64
	sendNs                atomic.Int64
	recvCalls, recvFrames atomic.Uint64
}

func newTransport(w wire, spans *spanLog, scan int) *transport {
	return &transport{w: w, spans: spans, scan: scan, epoch: time.Now()}
}

// Send is the engine's per-frame retry path; it is not timed.
func (t *transport) Send(frame []byte) error { return t.w.Send(frame) }

func (t *transport) SendBatch(frames [][]byte) (int, error) {
	start := time.Since(t.epoch)
	n, err := t.w.SendBatch(frames)
	end := time.Since(t.epoch)
	t.sendCalls.Add(1)
	t.sendFrames.Add(uint64(n))
	t.sendNs.Add(int64(end - start))
	t.spans.add(span{Name: "send", Scan: t.scan, StartNs: int64(start), EndNs: int64(end), Frames: n})
	return n, err
}

func (t *transport) Recv() <-chan []byte { return t.w.Recv() }

// RecvBatch is called by the engine after it has taken the first frame
// of a train from Recv, so one drain delivers n+1 frames.
func (t *transport) RecvBatch(dst [][]byte) int {
	id := t.recvCalls.Add(1)
	start := time.Since(t.epoch)
	n := t.w.RecvBatch(dst)
	end := time.Since(t.epoch)
	t.recvFrames.Add(uint64(n + 1))
	t.spans.add(span{Name: "recv", Scan: t.scan, ID: int(id), StartNs: int64(start), EndNs: int64(end), Frames: n + 1})
	return n
}

func (t *transport) Release(frame []byte) { t.w.Release(frame) }

func (t *transport) Stats() (sent, received, dropped uint64) { return t.w.Stats() }

// span is one timed transport call, relative to the scan's transport
// creation.
type span struct {
	Name    string `json:"name"`
	Scan    int    `json:"scan"`
	ID      int    `json:"id"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Frames  int    `json:"frames"`
}

// spanLog is a preallocated, append-only span buffer shared by the
// sender and the receive dispatcher. Spans past its capacity are counted
// and dropped rather than grown, so tracing never allocates mid-scan.
type spanLog struct {
	buf     []span
	n       atomic.Int64
	dropped atomic.Uint64
}

func newSpanLog(capacity int) *spanLog { return &spanLog{buf: make([]span, capacity)} }

func (l *spanLog) add(s span) {
	i := l.n.Add(1) - 1
	if i >= int64(len(l.buf)) {
		l.dropped.Add(1)
		return
	}
	l.buf[i] = s
}

func (l *spanLog) spans() []span {
	return l.buf[:min(l.n.Load(), int64(len(l.buf)))]
}

// nullWire accepts and discards every frame: nothing is ever received.
// It keeps an order-independent digest of the (dst, dport) targets it
// was handed, so the oracle can check the send path probed every target
// exactly once. Written by the single sender thread, read after Run.
type nullWire struct {
	ch     chan []byte
	sent   atomic.Uint64
	digest uint64
}

func newNullWire() *nullWire { return &nullWire{ch: make(chan []byte)} }

func (w *nullWire) Send(frame []byte) error {
	_, err := w.SendBatch([][]byte{frame})
	return err
}

func (w *nullWire) SendBatch(frames [][]byte) (int, error) {
	for _, f := range frames {
		ip, port := probeTarget(f)
		w.digest += targetHash(ip, port)
	}
	w.sent.Add(uint64(len(frames)))
	return len(frames), nil
}

func (w *nullWire) Recv() <-chan []byte              { return w.ch }
func (w *nullWire) RecvBatch([][]byte) int           { return 0 }
func (w *nullWire) Release([]byte)                   {}
func (w *nullWire) Stats() (sent, recv, drop uint64) { return w.sent.Load(), 0, 0 }

// probeTarget reads the destination address and port of an IPv4 TCP
// probe frame.
func probeTarget(f []byte) (ip uint32, port uint16) {
	const ipOff = packet.EthernetHeaderLen
	tcp := ipOff + int(f[ipOff]&0x0F)*4
	return binary.BigEndian.Uint32(f[ipOff+16:]), binary.BigEndian.Uint16(f[tcp+2:])
}

// reflector answers every probe with a valid SYN-ACK built from the
// probe itself, and a seeded one in eight targets twice. It never drops:
// when the receive ring is full, SendBatch blocks until the engine
// drains it, so the scan runs at the pipeline's lossless rate. Frames
// come from a preallocated free list and return through Release, so
// the reflector allocates nothing at steady state and every allocation
// a scan makes is the scanner's own.
type reflector struct {
	ring    chan []byte
	free    chan []byte
	salt    uint64
	timed   bool // time blocked pushes (traced scans)
	scratch packet.FrameScratch

	sent, delivered atomic.Uint64
	blockedNs       atomic.Int64
	poolMisses      atomic.Uint64
}

const (
	// reflectRing is the receive ring, netsim.Link's default depth.
	reflectRing = 4096
	// reflectFrames sizes the free list to cover the ring plus every
	// batch the receive pipeline can hold in flight, with room to spare.
	reflectFrames = 16384
	frameCap      = 128 // every reflected SYN-ACK fits
)

func newReflector(salt uint64) *reflector {
	r := &reflector{
		ring: make(chan []byte, reflectRing),
		free: make(chan []byte, reflectFrames),
		salt: salt,
	}
	for i := 0; i < reflectFrames; i++ {
		r.free <- make([]byte, 0, frameCap)
	}
	return r
}

// reset prepares a reused reflector for the next scan.
func (r *reflector) reset(timed bool) {
	r.timed = timed
	r.sent.Store(0)
	r.delivered.Store(0)
	r.blockedNs.Store(0)
	r.poolMisses.Store(0)
}

// drain empties the ring after a scan, returning how many frames the
// engine left unread (zero for a lossless scan).
func (r *reflector) drain() int {
	n := 0
	for {
		select {
		case f := <-r.ring:
			r.Release(f)
			n++
		default:
			return n
		}
	}
}

func (r *reflector) get() []byte {
	select {
	case b := <-r.free:
		return b[:0]
	default:
		r.poolMisses.Add(1)
		return make([]byte, 0, frameCap)
	}
}

func (r *reflector) Release(frame []byte) {
	select {
	case r.free <- frame[:0]:
	default:
	}
}

func (r *reflector) push(frame []byte) {
	select {
	case r.ring <- frame:
	default:
		if r.timed {
			t0 := time.Now()
			r.ring <- frame
			r.blockedNs.Add(int64(time.Since(t0)))
		} else {
			r.ring <- frame
		}
	}
	r.delivered.Add(1)
}

func (r *reflector) Send(frame []byte) error {
	_, err := r.SendBatch([][]byte{frame})
	return err
}

// SendBatch must only be called by one goroutine at a time: the parse
// scratch is shared (every workload runs one sender thread). A probe
// that does not parse and verify as a SYN gets no answer, which the
// oracle sees as a miss.
func (r *reflector) SendBatch(frames [][]byte) (int, error) {
	for _, probe := range frames {
		f, err := r.scratch.ParseVerified(probe)
		if err != nil || f.TCP == nil || f.TCP.Flags != packet.FlagSYN {
			continue
		}
		reply := buildSYNACK(r.get(), f)
		// Copy the duplicate before the reply is pushed: once pushed, the
		// engine may release it to the free list at any moment.
		var dup []byte
		if r.duplicate(f.IP.Dst, f.TCP.DstPort) {
			dup = append(r.get(), reply...)
		}
		r.push(reply)
		if dup != nil {
			r.push(dup)
		}
	}
	r.sent.Add(uint64(len(frames)))
	return len(frames), nil
}

// duplicate reports whether the target is one of the seeded one in
// eight answered twice.
func (r *reflector) duplicate(ip uint32, port uint16) bool {
	return mix64(uint64(ip)<<16|uint64(port)^r.salt)&7 == 0
}

// synackOpts is the option block on every reflected SYN-ACK.
var synackOpts = packet.BuildOptions(packet.LayoutMSS, 0)

// buildSYNACK appends to buf the SYN-ACK a listening host would send in
// answer to the parsed SYN f.
func buildSYNACK(buf []byte, f *packet.Frame) []byte {
	dst, src := f.IP.Dst, f.IP.Src
	buf = packet.AppendEthernet(buf, f.EthDst, f.EthSrc, packet.EtherTypeIPv4)
	buf = packet.AppendIPv4(buf, packet.IPv4{
		ID:       uint16(mix64(uint64(dst))),
		TTL:      64,
		Protocol: packet.ProtocolTCP,
		Src:      dst,
		Dst:      src,
	}, packet.TCPHeaderLen+len(synackOpts))
	buf, _ = packet.AppendTCP(buf, packet.TCP{
		SrcPort: f.TCP.DstPort,
		DstPort: f.TCP.SrcPort,
		Seq:     uint32(mix64(uint64(dst)<<16 | uint64(f.TCP.DstPort))),
		Ack:     f.TCP.Seq + 1,
		Flags:   packet.FlagSYN | packet.FlagACK,
		Window:  28960,
		Options: synackOpts,
	}, dst, src, nil) // the MSS layout is 4-aligned; cannot fail
	return buf
}

func (r *reflector) Recv() <-chan []byte { return r.ring }

func (r *reflector) RecvBatch(dst [][]byte) int {
	n := 0
	for n < len(dst) {
		select {
		case f := <-r.ring:
			dst[n] = f
			n++
		default:
			return n
		}
	}
	return n
}

func (r *reflector) Stats() (sent, received, dropped uint64) {
	return r.sent.Load(), r.delivered.Load(), 0
}
