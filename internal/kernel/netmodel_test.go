package kernel

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"sva/internal/abi"
	"sva/internal/hw"
	"sva/internal/userland"
	"sva/internal/vm"
)

// netModel drives queue 0 of a booted safe kernel and keeps the reference
// FIFO the guest's Rx path must follow: every frame the wire delivers is
// appended, served frames leave from the front in order, and the rest are
// either completed on the Rx ring (between netring_seen and the device's
// consumer index) or still on the wire.
type netModel struct {
	sys *System
	u   *userland.U
	rng *rand.Rand

	wire   [][]byte // delivered frames the Rx doorbell has not pulled yet
	fifo   [][]byte // every delivered frame, in arrival order
	served int      // fifo[:served] have been answered
	nextID uint64

	serving bool     // a sys_netserve is transmitting (replies) ...
	replies [][]byte // ... and these are its replies
	pumped  [][]byte // pump frames transmitted, not yet looped back
}

const netModelIDOff = 24 // frame identity: bytes 24..32, inside the checksummed payload

// frame stamps a fresh identity into f at netModelIDOff.
func (m *netModel) frame(f []byte) []byte {
	m.nextID++
	binary.LittleEndian.PutUint64(f[netModelIDOff:], m.nextID)
	return f
}

func (m *netModel) deliver(f []byte) {
	m.wire = append(m.wire, f)
	m.fifo = append(m.fifo, f)
}

func (m *netModel) run(prog string, arg uint64) (uint64, error) {
	return m.sys.RunUser(m.u.M.Func(prog), arg, 0)
}

// step applies one action: deliver 1-12 request frames, pump 0-9 frames
// (sys_netpump clamps at 8), serve with a budget of 0-69, or complete the
// pumped transmissions by looping them back onto the wire.
func (m *netModel) step(op uint16) error {
	arg := uint64(op >> 2)
	switch op & 3 {
	case 0:
		for k := 0; k <= int(arg%12); k++ {
			f := make([]byte, 32+m.rng.Intn(NetFrameSize-31))
			m.rng.Read(f)
			m.deliver(m.frame(f))
		}
	case 1:
		before := len(m.pumped)
		n, err := m.run("net_pump", arg%10)
		if err != nil {
			return err
		}
		if want := min(arg%10, NetPumpBufs); n != want || uint64(len(m.pumped)-before) != want {
			return fmt.Errorf("pump(%d) posted %d and transmitted %d frames, want %d", arg%10, n, len(m.pumped)-before, want)
		}
	case 2:
		budget := arg % 70
		m.serving, m.replies = true, nil
		n, err := m.run("net_serve", budget)
		m.serving = false
		if err != nil {
			return err
		}
		if n > budget || uint64(len(m.replies)) != n {
			return fmt.Errorf("serve(%d) returned %d with %d replies", budget, n, len(m.replies))
		}
		for _, r := range m.replies {
			if m.served == len(m.fifo) {
				return fmt.Errorf("reply to a frame that was never delivered")
			}
			if err := checkReply(m.fifo[m.served], r); err != nil {
				return fmt.Errorf("reply %d: %w", m.served, err)
			}
			m.served++
		}
	case 3:
		for _, f := range m.pumped {
			m.deliver(m.frame(f))
		}
		m.pumped = nil
	}
	return m.check()
}

// checkReply requires r to answer req: same length and payload, with the
// guest's checksum of bytes 24.. stamped at byte 16.
func checkReply(req, r []byte) error {
	if len(r) != len(req) {
		return fmt.Errorf("length %d, want %d", len(r), len(req))
	}
	var sum uint64
	for _, c := range req[24:] {
		sum += uint64(c)
	}
	if got := binary.LittleEndian.Uint64(r[16:]); got != sum {
		return fmt.Errorf("checksum %d, want %d", got, sum)
	}
	if string(r[24:]) != string(req[24:]) {
		return fmt.Errorf("payload of frame %d answered out of order (got frame %d)",
			binary.LittleEndian.Uint64(req[netModelIDOff:]), binary.LittleEndian.Uint64(r[netModelIDOff:]))
	}
	return nil
}

// check compares queue 0's Rx ring with the model: the completed but
// unserved descriptors hold the FIFO's next frames in order, the wire
// holds the rest, and the 64 descriptors from netring_seen up to the
// producer name distinct buffers — none of them a pump buffer — so the
// queue keeps all of its 64 Rx and 8 pump buffers.
func (m *netModel) check() error {
	v := m.sys.VM
	area, _ := v.GlobalAddrByName("netring_area")
	bufs, _ := v.GlobalAddrByName("netring_bufs")
	rx := area + NetRingBytes // queue 0's Rx ring (ring index 1)
	seen, err := m.sys.PeekGlobal("netring_seen", 0)
	if err != nil {
		return err
	}
	cons, err := v.Mach.NIC.Reap(hw.RingIndex(0, hw.RingDirRx))
	if err != nil {
		return err
	}
	prod, err := v.Mach.Phys.Load(rx, 8)
	if err != nil {
		return err
	}
	if seen > cons || cons > prod || prod-seen != NetRingSlots {
		return fmt.Errorf("Rx ring seen=%d cons=%d prod=%d: want seen <= cons <= prod = seen+%d", seen, cons, prod, NetRingSlots)
	}
	completed := int(cons - seen)
	if m.served+completed+len(m.wire) != len(m.fifo) {
		return fmt.Errorf("%d delivered = %d served + %d completed + %d on the wire does not add up",
			len(m.fifo), m.served, completed, len(m.wire))
	}
	owner := map[uint64]uint64{}
	for k := seen; k < prod; k++ {
		da := rx + hw.RingHdrSize + (k&(NetRingSlots-1))*hw.RingDescSize
		addr, _ := v.Mach.Phys.Load(da, 8)
		ln, _ := v.Mach.Phys.Load(da+8, 4)
		st, _ := v.Mach.Phys.Load(da+12, 4)
		idx := (addr - bufs) / NetFrameSize
		if addr < bufs || (addr-bufs)%NetFrameSize != 0 || idx >= NetRingSlots+NetPumpBufs {
			return fmt.Errorf("Rx descriptor %d names %#x, not one of queue 0's buffers", k, addr)
		}
		if idx >= NetRingSlots {
			return fmt.Errorf("Rx descriptor %d names pump buffer %d", k, idx-NetRingSlots)
		}
		if prev, dup := owner[idx]; dup {
			return fmt.Errorf("buffer %d posted twice (descriptors %d and %d)", idx, prev, k)
		}
		owner[idx] = k
		if k >= cons {
			if st != hw.DescFree || ln != NetFrameSize {
				return fmt.Errorf("posted Rx descriptor %d: status %d len %d", k, st, ln)
			}
			continue
		}
		want := m.fifo[m.served+int(k-seen)]
		got := make([]byte, ln)
		if err := v.Mach.Phys.ReadAt(addr, got); err != nil {
			return err
		}
		if st != hw.DescDone || string(got) != string(want) {
			return fmt.Errorf("completed Rx descriptor %d: status %d, frame %d, want frame %d",
				k, st, binary.LittleEndian.Uint64(got[netModelIDOff:]), binary.LittleEndian.Uint64(want[netModelIDOff:]))
		}
	}
	return nil
}

// TestNetRingModelEquivalence is the Rx ring's model property: over
// random sequences of NIC deliveries, sys_netpump, sys_netserve and
// looped-back Tx completions, every delivered frame is answered exactly
// once, in arrival order, or is still pending; no buffer is posted twice;
// and queue 0 keeps its 72 buffers.
func TestNetRingModelEquivalence(t *testing.T) {
	u := userland.New("netmodel")
	b := u.B
	u.Prog("net_pump")
	b.Ret(u.Trap(abi.SysNetPump, b.Param(0)))
	u.Prog("net_serve")
	b.Ret(u.Trap(abi.SysNetServe, b.Param(0)))
	u.SealAll()
	si, err := BuildShared(vm.ConfigSafe, true, u.M)
	if err != nil {
		t.Fatal(err)
	}

	prop := func(seed int64, ops []uint16) bool {
		sys, err := NewSystemShared(si)
		if err != nil {
			t.Fatal(err)
		}
		m := &netModel{sys: sys, u: u, rng: rand.New(rand.NewSource(seed))}
		nic := sys.VM.Mach.NIC
		nic.Source = func(queue int, now uint64, max int) [][]byte {
			n := min(max, len(m.wire))
			out := m.wire[:n:n]
			m.wire = m.wire[n:]
			return out
		}
		nic.Sink = func(queue int, f []byte, now uint64) {
			if m.serving {
				m.replies = append(m.replies, f)
			} else {
				m.pumped = append(m.pumped, f)
			}
		}
		if len(ops) > 32 {
			ops = ops[:32]
		}
		for i, op := range ops {
			if err := m.step(op); err != nil {
				t.Logf("seed %d, action %d of %v: %v", seed, i, ops[:i+1], err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
