// Package hw simulates the hardware substrate beneath the Secure Virtual
// Machine: physical memory, processor state (integer + floating point),
// a page-table MMU, an interrupt controller, a timer, and simple devices
// (console, block device, loopback NIC).
//
// The SVA paper runs on a real Pentium III; this package is the synthetic
// equivalent (see DESIGN.md §2).  All privileged state is reachable only
// through these APIs, which internal/svaos wraps as the SVA-OS operations —
// so the guest kernel manipulates hardware exactly the way the paper
// prescribes: through the virtual instruction set, never directly.
//
// SMP: one Machine may be driven by several virtual CPUs (goroutines).
// Physical memory reaches its pages through a lock-free two-level atomic
// directory.  After EnableSMP, page *contents* are read and written one
// aligned 8-byte word at a time with sync/atomic, so every word is
// linearizable and no transfer takes a lock; a uniprocessor machine pays
// one atomic flag load per transfer and nothing else.  Devices carry their
// own small mutexes.
package hw

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"sva/internal/faultinject"
)

// PageSize is the physical/virtual page size in bytes.
const PageSize = 4096

const (
	physL2Bits = 11 // pages per directory leaf
	physL1Bits = 11 // leaves in the directory
	// physCoverPages is the page count the two-level directory covers:
	// 4 M pages = 16 GiB.  Pages beyond it live in an overflow map (the
	// guest address layout tops out far below, so it is effectively cold).
	physCoverPages = uint64(1) << (physL1Bits + physL2Bits)
	// tlbSlots sizes the uniprocessor page-pointer cache.
	tlbSlots = 64
)

// physLeaf is one directory leaf: pointers to materialized page arrays.
type physLeaf [1 << physL2Bits]atomic.Pointer[[PageSize]byte]

// PhysMemory is a sparse, paged physical memory.  Pages materialize
// (zeroed) on first touch, so a 64-bit address space costs only what the
// guest actually uses.  Page lookup is lock-free (atomic directory walk +
// CAS materialization).
//
// Under SMP, page contents are accessed word-atomically, as on real
// hardware: a Load or Store of 1, 2, 4 or 8 bytes inside one aligned
// 8-byte word is a single atomic load, store or compare-and-swap (a
// sub-word store merges only its own bytes, so neighbouring bytes are
// never lost), and every other transfer — ReadAt, WriteAt, Zero and
// accesses that cross a word or a page — goes word by word through the
// same primitives.  Each word is therefore linearizable, while a bulk
// transfer is atomic per word rather than as a whole.  Guest
// read-modify-write instructions are serialized above this layer (the
// VM's shared atomics lock), not here.
type PhysMemory struct {
	dir [1 << physL1Bits]atomic.Pointer[physLeaf]
	// high holds pages above the directory's coverage window.
	highMu sync.Mutex
	high   map[uint64]*[PageSize]byte

	touched atomic.Int64
	// smp switches page contents to word-atomic access; set by EnableSMP
	// before the virtual CPUs launch.
	smp atomic.Bool

	// tlb is a direct-mapped page-pointer cache for the uniprocessor
	// Load/Store fast paths.  Pages materialize once and are never freed
	// or replaced, so a cached pointer can never go stale; the TLB is
	// read and written only on the !smp path, where a single goroutine
	// drives the machine.
	tlbIdx  [tlbSlots]uint64
	tlbPage [tlbSlots]*[PageSize]byte

	// Limit, if non-zero, bounds the highest addressable byte.
	Limit uint64
	// Chaos, when set, is the fault injector consulted on the memory seams:
	// ClassMemFlip flips a stored bit during Load (soft-error model),
	// ClassOOM fails a write as if physical backing ran out.  nil in
	// production; each hook costs one pointer compare.
	Chaos *faultinject.Injector
}

// NewPhysMemory returns a memory with the given size limit (0 = unlimited).
func NewPhysMemory(limit uint64) *PhysMemory {
	return &PhysMemory{high: make(map[uint64]*[PageSize]byte), Limit: limit}
}

// EnableSMP switches page contents to (or from) word-atomic access.  Call
// before the virtual CPUs start sharing this memory.
func (m *PhysMemory) EnableSMP(on bool) { m.smp.Store(on) }

// MemFault reports an out-of-range physical access.
type MemFault struct {
	Addr uint64
	Size int
}

func (f *MemFault) Error() string {
	return fmt.Sprintf("physical memory fault at %#x (size %d)", f.Addr, f.Size)
}

// page returns the backing array for the page containing addr,
// materializing it if needed.  Lock-free: two atomic loads on the hot
// path, CAS on first touch (the losing CPU adopts the winner's page).
func (m *PhysMemory) page(addr uint64) *[PageSize]byte {
	idx := addr / PageSize
	if idx >= physCoverPages {
		return m.highPage(idx)
	}
	slot := &m.dir[idx>>physL2Bits]
	leaf := slot.Load()
	if leaf == nil {
		leaf = new(physLeaf)
		if !slot.CompareAndSwap(nil, leaf) {
			leaf = slot.Load()
		}
	}
	ps := &leaf[idx&(1<<physL2Bits-1)]
	p := ps.Load()
	if p == nil {
		p = newPage()
		if ps.CompareAndSwap(nil, p) {
			m.touched.Add(1)
		} else {
			p = ps.Load()
		}
	}
	return p
}

// pageFast is page() behind the direct-mapped TLB.  Uniprocessor fast
// paths only: the TLB slots are plain (unsynchronized) fields.
func (m *PhysMemory) pageFast(addr uint64) *[PageSize]byte {
	idx := addr / PageSize
	s := idx & (tlbSlots - 1)
	if p := m.tlbPage[s]; p != nil && m.tlbIdx[s] == idx {
		return p
	}
	p := m.page(addr)
	m.tlbIdx[s] = idx
	m.tlbPage[s] = p
	return p
}

// highPage serves the overflow map above the directory window.
func (m *PhysMemory) highPage(idx uint64) *[PageSize]byte {
	m.highMu.Lock()
	defer m.highMu.Unlock()
	p := m.high[idx]
	if p == nil {
		p = newPage()
		m.high[idx] = p
		m.touched.Add(1)
	}
	return p
}

// Check validates [addr, addr+n) against the memory limit without
// transferring (the RingMemory validation hook).
func (m *PhysMemory) Check(addr uint64, n int) error { return m.check(addr, n) }

func (m *PhysMemory) check(addr uint64, n int) error {
	if n < 0 {
		return &MemFault{Addr: addr, Size: n}
	}
	end := addr + uint64(n)
	if end < addr {
		return &MemFault{Addr: addr, Size: n}
	}
	if m.Limit != 0 && end > m.Limit {
		return &MemFault{Addr: addr, Size: n}
	}
	return nil
}

// ReadAt copies len(buf) bytes starting at addr into buf.
func (m *PhysMemory) ReadAt(addr uint64, buf []byte) error {
	if err := m.check(addr, len(buf)); err != nil {
		return err
	}
	// Single-page transfers on a uniprocessor skip the per-page loop.
	if off := addr % PageSize; off+uint64(len(buf)) <= PageSize && !m.smp.Load() {
		copy(buf, m.pageFast(addr)[off:])
		return nil
	}
	smp := m.smp.Load()
	for len(buf) > 0 {
		p := m.page(addr)
		off := addr % PageSize
		n := min(uint64(len(buf)), PageSize-off)
		if smp {
			readWords(p, off, buf[:n])
		} else {
			copy(buf, p[off:])
		}
		buf = buf[n:]
		addr += n
	}
	return nil
}

// WriteAt copies buf into memory starting at addr.
func (m *PhysMemory) WriteAt(addr uint64, buf []byte) error {
	if m.Chaos != nil && m.Chaos.Should(faultinject.ClassOOM) {
		m.Chaos.Note("physmem.write", "synthetic OOM on %d-byte write at %#x", len(buf), addr)
		return &MemFault{Addr: addr, Size: len(buf)}
	}
	if err := m.check(addr, len(buf)); err != nil {
		return err
	}
	// Single-page transfers on a uniprocessor skip the per-page loop.
	if off := addr % PageSize; off+uint64(len(buf)) <= PageSize && !m.smp.Load() {
		copy(m.pageFast(addr)[off:], buf)
		return nil
	}
	smp := m.smp.Load()
	for len(buf) > 0 {
		p := m.page(addr)
		off := addr % PageSize
		n := min(uint64(len(buf)), PageSize-off)
		if smp {
			writeWords(p, off, buf[:n], n)
		} else {
			copy(p[off:], buf)
		}
		buf = buf[n:]
		addr += n
	}
	return nil
}

// Load reads a little-endian unsigned integer of the given byte size.
func (m *PhysMemory) Load(addr uint64, size int) (uint64, error) {
	// Fast path: an access that stays inside one page on a uniprocessor
	// with no fault injector decodes straight out of the backing array —
	// no staging buffer, no per-page copy loop.  Semantically identical to
	// the general path below (same bounds check, same page walk).
	if off := addr % PageSize; off+uint64(size) <= PageSize && m.Chaos == nil && !m.smp.Load() {
		if m.Limit != 0 && addr+uint64(size) > m.Limit {
			return 0, &MemFault{Addr: addr, Size: size}
		}
		p := m.pageFast(addr)
		switch size {
		case 8:
			return binary.LittleEndian.Uint64(p[off:]), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:])), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:])), nil
		case 1:
			return uint64(p[off]), nil
		}
	}
	if size != 1 && size != 2 && size != 4 && size != 8 {
		return 0, &MemFault{Addr: addr, Size: size}
	}
	// SMP fast path: an access inside one aligned word is one atomic load,
	// with the uniprocessor fast path's bounds check.
	if sh := addr % 8; sh+uint64(size) <= 8 && m.Chaos == nil {
		if m.Limit != 0 && addr+uint64(size) > m.Limit {
			return 0, &MemFault{Addr: addr, Size: size}
		}
		return loadWord(m.page(addr), addr%PageSize) >> (8 * sh) & sizeMask(size), nil
	}
	var buf [8]byte
	if err := m.ReadAt(addr, buf[:size]); err != nil {
		return 0, err
	}
	if m.Chaos != nil && m.Chaos.Should(faultinject.ClassMemFlip) {
		// Flip one bit of the loaded word in backing memory too, so the
		// fault persists the way a real soft error in DRAM would.
		bit := m.Chaos.Rand(uint64(size) * 8)
		buf[bit/8] ^= 1 << (bit % 8)
		_ = m.WriteAt(addr, buf[:size])
		m.Chaos.Note("physmem.load", "flip bit %d of %d-byte load at %#x", bit, size, addr)
	}
	return binary.LittleEndian.Uint64(buf[:]) & sizeMask(size), nil
}

// Store writes a little-endian unsigned integer of the given byte size.
func (m *PhysMemory) Store(addr uint64, v uint64, size int) error {
	// Fast path mirror of Load's: single page, uniprocessor, no injector.
	if off := addr % PageSize; off+uint64(size) <= PageSize && m.Chaos == nil && !m.smp.Load() {
		if m.Limit != 0 && addr+uint64(size) > m.Limit {
			return &MemFault{Addr: addr, Size: size}
		}
		p := m.pageFast(addr)
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
			return nil
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
			return nil
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
			return nil
		case 1:
			p[off] = byte(v)
			return nil
		}
	}
	if size != 1 && size != 2 && size != 4 && size != 8 {
		return &MemFault{Addr: addr, Size: size}
	}
	// SMP fast path mirror of Load's: one atomic store or merge.
	if sh := addr % 8; sh+uint64(size) <= 8 && m.Chaos == nil {
		if m.Limit != 0 && addr+uint64(size) > m.Limit {
			return &MemFault{Addr: addr, Size: size}
		}
		storeWord(m.page(addr), addr%PageSize, v<<(8*sh), sizeMask(size)<<(8*sh))
		return nil
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return m.WriteAt(addr, buf[:size])
}

func sizeMask(size int) uint64 {
	if size >= 8 {
		return ^uint64(0)
	}
	return 1<<(uint(size)*8) - 1
}

// Zero clears n bytes starting at addr.
func (m *PhysMemory) Zero(addr uint64, n uint64) error {
	if m.Chaos != nil && m.Chaos.Should(faultinject.ClassOOM) {
		m.Chaos.Note("physmem.zero", "synthetic OOM zeroing %d bytes at %#x", n, addr)
		return &MemFault{Addr: addr, Size: int(n)}
	}
	if err := m.check(addr, int(n)); err != nil {
		return err
	}
	smp := m.smp.Load()
	for n > 0 {
		p := m.page(addr)
		off := addr % PageSize
		c := min(n, PageSize-off)
		if smp {
			writeWords(p, off, nil, c)
		} else {
			clear(p[off : off+c])
		}
		addr += c
		n -= c
	}
	return nil
}

// Word-atomic page access (SMP mode).  Pages are allocated as arrays of
// uint64, so every aligned 8-byte word of a page is a valid sync/atomic
// operand.  Words are handled in guest (little-endian) byte order: bit
// 8*i of a word value is the low bit of the word's byte i.

// hostBigEndian reports whether the host stores the most significant
// byte of a word first, in which case le swaps words to guest order.
var hostBigEndian = binary.NativeEndian.Uint16([]byte{0, 1}) == 1

// le converts a page word between host and guest byte order (the
// conversion is its own inverse).
func le(w uint64) uint64 {
	if hostBigEndian {
		return bits.ReverseBytes64(w)
	}
	return w
}

// newPage allocates a zeroed page backed by 64-bit words.
func newPage() *[PageSize]byte {
	return (*[PageSize]byte)(unsafe.Pointer(new([PageSize / 8]uint64)))
}

// wordAt returns the aligned word of page p holding byte off.
func wordAt(p *[PageSize]byte, off uint64) *uint64 {
	return (*uint64)(unsafe.Pointer(&p[off&^7]))
}

// loadWord atomically reads the aligned word holding byte off.
func loadWord(p *[PageSize]byte, off uint64) uint64 {
	return le(atomic.LoadUint64(wordAt(p, off)))
}

// storeWord atomically replaces the bytes selected by mask in the aligned
// word holding byte off with those of v.  A partial mask merges with a
// compare-and-swap loop, so concurrent stores to the word's other bytes
// are never lost.
func storeWord(p *[PageSize]byte, off uint64, v, mask uint64) {
	w := wordAt(p, off)
	if mask == ^uint64(0) {
		atomic.StoreUint64(w, le(v))
		return
	}
	v, mask = le(v&mask), le(mask)
	for {
		old := atomic.LoadUint64(w)
		if atomic.CompareAndSwapUint64(w, old, old&^mask|v) {
			return
		}
	}
}

// readWords fills dst from page p at off, one atomic load per word.  The
// range must lie inside the page.
func readWords(p *[PageSize]byte, off uint64, dst []byte) {
	for len(dst) > 0 {
		if off%8 == 0 && len(dst) >= 8 {
			// A whole word: its host byte order is the memory image.
			binary.NativeEndian.PutUint64(dst, atomic.LoadUint64(wordAt(p, off)))
			dst, off = dst[8:], off+8
			continue
		}
		sh := off % 8
		w := loadWord(p, off) >> (8 * sh)
		c := min(8-sh, uint64(len(dst)))
		for i := range c {
			dst[i] = byte(w >> (8 * i))
		}
		dst, off = dst[c:], off+c
	}
}

// writeWords stores n bytes of src (zeros when src is nil) into page p at
// off, one atomic store or merge per word.  The range must lie inside the
// page.
func writeWords(p *[PageSize]byte, off uint64, src []byte, n uint64) {
	for n > 0 {
		var v uint64
		if off%8 == 0 && n >= 8 {
			if src != nil {
				v, src = binary.NativeEndian.Uint64(src), src[8:]
			}
			atomic.StoreUint64(wordAt(p, off), v)
			off, n = off+8, n-8
			continue
		}
		sh := off % 8
		c := min(8-sh, n)
		if src != nil {
			for i := range c {
				v |= uint64(src[i]) << (8 * i)
			}
			src = src[c:]
		}
		storeWord(p, off, v<<(8*sh), sizeMask(int(c))<<(8*sh))
		off, n = off+c, n-c
	}
}

// PagesTouched returns how many physical pages have materialized.
func (m *PhysMemory) PagesTouched() int { return int(m.touched.Load()) }
