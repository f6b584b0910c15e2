// Package dedup filters repeated scan responses.
//
// Hosts frequently answer a single probe more than once — retransmitted
// SYN-ACKs, broken stacks, and "blowback" hosts that send tens of
// thousands of responses (Goldblatt et al.). ZMap has used two
// deduplication designs, both implemented here:
//
//   - Bitmap: a paged 2^32-bit map keyed by source IP. It guarantees zero
//     duplicates but costs 512 MB when fully touched and cannot extend to
//     the 48-bit (IP, port) multiport space (that would be 35 TB), which
//     is why it was retired (§4.1).
//
//   - Window: a sliding window of the last n (IP, port) responses — the
//     modern design. The C implementation indexes the window with a Judy
//     array; the property Figure 5 depends on is O(1) membership with
//     memory proportional to occupancy. Here one open-addressed hash
//     table over a FIFO ring plays that role (KeyedWindow): both start
//     empty and grow as responses arrive, never past what n keys need,
//     so building a window costs nothing and a scan that receives
//     little holds little. The IPv6 scanner's (address, port) keys run
//     on the same code.
//
// Deduplicators are not safe for concurrent use. ZMap dedupes on a
// single receive thread; the sharded receive path keeps that invariant
// per shard by giving each worker its own Window over a disjoint slice
// of the key space — ShardOf decides which worker owns a key, so Seen
// needs no mutex.
package dedup

import "unsafe"

// Deduper records (IP, port) response keys and reports repeats.
type Deduper interface {
	// Seen records the key and reports whether it was already present.
	Seen(ip uint32, port uint16) bool
	// Len returns the number of keys currently tracked.
	Len() int
	// MemoryBytes estimates current memory consumption.
	MemoryBytes() uint64
}

// DefaultWindowSize is ZMap's default sliding-window size (10^6), which
// Figure 5 shows eliminates nearly all duplicates at 1 Gbps scan rates.
const DefaultWindowSize = 1_000_000

// pageBits is the size of one bitmap page (2^16 bits = 8 KB), paged so an
// untouched address space costs nothing.
const pageBits = 16

// Bitmap is the original single-port deduplicator: one bit per IPv4
// address, allocated in pages on first touch. Ports are ignored.
type Bitmap struct {
	pages     [1 << (32 - pageBits)][]uint64
	count     int
	allocated int
}

// NewBitmap returns an empty paged bitmap.
func NewBitmap() *Bitmap { return &Bitmap{} }

// Seen implements Deduper. The port argument is ignored: the bitmap
// design predates multiport scanning, which is exactly its limitation.
func (b *Bitmap) Seen(ip uint32, _ uint16) bool {
	page := ip >> pageBits
	if b.pages[page] == nil {
		b.pages[page] = make([]uint64, (1<<pageBits)/64)
		b.allocated++
	}
	offset := ip & (1<<pageBits - 1)
	word, bit := offset/64, offset%64
	mask := uint64(1) << bit
	if b.pages[page][word]&mask != 0 {
		return true
	}
	b.pages[page][word] |= mask
	b.count++
	return false
}

// Len implements Deduper.
func (b *Bitmap) Len() int { return b.count }

// MemoryBytes implements Deduper: 8 KB per allocated page.
func (b *Bitmap) MemoryBytes() uint64 {
	return uint64(b.allocated) * (1 << pageBits) / 8
}

// FullBitmapBytes returns the memory a non-paged bitmap over the given key
// width would need; FullBitmapBytes(32) is the 512 MB figure and
// FullBitmapBytes(48) the 35 TB figure from §4.1.
func FullBitmapBytes(bits uint) uint64 { return (uint64(1) << bits) / 8 }

// Window is the modern sliding-window deduplicator over packed 48-bit
// (IP, port) keys: a KeyedWindow[uint64] with an (IP, port) front end.
type Window struct{ KeyedWindow[uint64] }

// NewWindow returns a sliding-window deduplicator remembering the last
// size responses. Size must be in [1, MaxWindowSize]. The window starts
// empty and allocates as responses arrive. Keys hash with mix64: ShardOf
// spends its low bits choosing the shard, the table reads the high half.
func NewWindow(size int) *Window { return &Window{newKeyedWindow(size, mix64)} }

func key(ip uint32, port uint16) uint64 { return uint64(ip)<<16 | uint64(port) }

// Seen implements Deduper over the 48-bit key space.
func (w *Window) Seen(ip uint32, port uint16) bool { return w.KeyedWindow.Seen(key(ip, port)) }

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit mixer, so
// adjacent (IP, port) keys — scans walk dense ranges — spread uniformly
// across shards instead of striping.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardOf maps a response flow to its owning shard: mix64 over the same
// packed 48-bit key Window stores, masked to the shard count (mask must
// be 2^n - 1). The mapping depends only on the key, never on shard
// count history, so checkpointed keys re-partition cleanly when a scan
// resumes with a different number of receive workers.
func ShardOf(ip uint32, port uint16, mask uint32) uint32 {
	return uint32(mix64(key(ip, port))) & mask
}

// MaxWindowSize is the largest window: a table slot holds a 32-bit ring
// position and a 32-bit hash tag that also picks the slot's home.
const MaxWindowSize = 1<<31 - 1

// ringChunkBits sets the ring's allocation unit: the FIFO grows 2^16
// keys at a time, so it follows occupancy without copying on growth.
const ringChunkBits = 16

// KeyedWindow is the sliding-window deduplicator over any comparable
// key: a FIFO ring of the last size keys, indexed by an open-addressed
// hash table (linear probing, backward-shift deletion on eviction).
// Both start empty and grow with occupancy — the ring in fixed chunks,
// the table by doubling at load ½ — up to what size keys need, so an
// idle window costs nothing and a full one costs its keys plus a table
// of 8-byte slots at load between ¼ and ½. Window specializes it to
// packed (IP, port) keys; the IPv6 hitlist scanner uses [18]byte
// (address, port) keys.
type KeyedWindow[K comparable] struct {
	size  int
	hash  func(K) uint64
	table []uint64 // tag<<32 | (ring position + 1); 0 = empty slot
	ring  [][]K    // keys by ring position, in 2^ringChunkBits chunks
	head  int      // ring position of the next fresh key (the oldest once full)
	used  int
}

// NewKeyedWindow returns a window remembering the last size keys. Size
// must be in [1, MaxWindowSize]. The table indexes keys by the high 32
// bits of hash, which should mix every key bit into them; verdicts never
// depend on the hash, only speed does.
func NewKeyedWindow[K comparable](size int, hash func(K) uint64) *KeyedWindow[K] {
	w := newKeyedWindow(size, hash)
	return &w
}

func newKeyedWindow[K comparable](size int, hash func(K) uint64) KeyedWindow[K] {
	if size <= 0 || size > MaxWindowSize {
		panic("dedup: window size must be in [1, MaxWindowSize]")
	}
	return KeyedWindow[K]{size: size, hash: hash}
}

func (w *KeyedWindow[K]) at(pos int) *K {
	return &w.ring[pos>>ringChunkBits][pos&(1<<ringChunkBits-1)]
}

// Seen records k and reports whether it was already in the window.
func (w *KeyedWindow[K]) Seen(k K) bool {
	tag := uint32(w.hash(k) >> 32)
	if len(w.table) > 0 {
		mask := uint32(len(w.table) - 1)
		for i := tag & mask; w.table[i] != 0; i = (i + 1) & mask {
			if s := w.table[i]; uint32(s>>32) == tag && *w.at(int(uint32(s)) - 1) == k {
				return true
			}
		}
	}
	if w.used == w.size {
		w.evict(w.head)
	} else {
		w.used++
		w.reserve()
	}
	*w.at(w.head) = k
	w.place(uint64(tag)<<32 | uint64(w.head+1))
	if w.head++; w.head == w.size {
		w.head = 0
	}
	return false
}

// reserve makes room for key number w.used at ring position w.head
// while the window is still filling.
func (w *KeyedWindow[K]) reserve() {
	if w.head>>ringChunkBits == len(w.ring) {
		w.ring = append(w.ring, make([]K, min(1<<ringChunkBits, w.size-w.head)))
	}
	if 2*w.used <= len(w.table) {
		return
	}
	// Load stays <= ½: the table doubles up to 2*size rounded to a
	// power of two, which a full window never outgrows.
	n := 2 * len(w.table)
	if n == 0 {
		n = 16
		for n/4 >= w.size { // a tiny window starts at the size it needs
			n /= 2
		}
	}
	old := w.table
	w.table = make([]uint64, n)
	for _, s := range old {
		if s != 0 {
			w.place(s)
		}
	}
}

// place stores slot s at the first free slot from its tag's home.
func (w *KeyedWindow[K]) place(s uint64) {
	mask := uint32(len(w.table) - 1)
	i := uint32(s>>32) & mask
	for w.table[i] != 0 {
		i = (i + 1) & mask
	}
	w.table[i] = s
}

// evict drops the key at ring position pos from the table, shifting the
// rest of its probe run back so no lookup meets a hole.
func (w *KeyedWindow[K]) evict(pos int) {
	mask := uint32(len(w.table) - 1)
	i := uint32(w.hash(*w.at(pos))>>32) & mask
	for uint32(w.table[i]) != uint32(pos+1) {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; w.table[j] != 0; j = (j + 1) & mask {
		// Move the slot at j into the hole unless its home lies in (i, j].
		if home := uint32(w.table[j]>>32) & mask; (j-home)&mask >= (j-i)&mask {
			w.table[i] = w.table[j]
			i = j
		}
	}
	w.table[i] = 0
}

// Len returns the number of keys currently tracked.
func (w *KeyedWindow[K]) Len() int { return w.used }

// Size returns the configured window capacity.
func (w *KeyedWindow[K]) Size() int { return w.size }

// Keys returns the window contents in insertion order, oldest first —
// the serializable state a checkpoint needs to carry dedup across a
// process restart. Replaying the returned slice through Seen on an empty
// window of the same size reproduces the exact membership and eviction
// order.
func (w *KeyedWindow[K]) Keys() []K {
	out := make([]K, 0, w.used)
	pos := w.head - w.used
	if pos < 0 {
		pos += w.size
	}
	for range w.used {
		out = append(out, *w.at(pos))
		if pos++; pos == w.size {
			pos = 0
		}
	}
	return out
}

// Restore replays previously captured keys (oldest first) into the
// window, as if each had been Seen. Keys beyond the window size evict
// the oldest, matching live behavior, so restoring into a smaller window
// keeps the most recent keys.
func (w *KeyedWindow[K]) Restore(keys []K) {
	for _, k := range keys {
		w.Seen(k)
	}
}

// MemoryBytes returns the bytes held by the allocated ring chunks and
// the hash table.
func (w *KeyedWindow[K]) MemoryBytes() uint64 {
	var zero K
	n := uint64(len(w.table)) * 8
	for _, c := range w.ring {
		n += uint64(len(c)) * uint64(unsafe.Sizeof(zero))
	}
	return n
}
