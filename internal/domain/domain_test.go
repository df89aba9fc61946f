package domain

import (
	"errors"
	"sync"
	"testing"

	"sva/internal/abi"
	"sva/internal/hw"
	"sva/internal/kernel"
	"sva/internal/userland"
	"sva/internal/vm"
)

// The shared image is expensive to build (kernel build + safety compile),
// so every test in the package boots its domains from this one — which is
// also exactly the production shape: one pristine image, many fleets.
var (
	imgOnce sync.Once
	imgVal  *kernel.SharedImage
	imgU    *userland.U
	imgErr  error
)

func sharedImage(t *testing.T) (*kernel.SharedImage, *userland.U) {
	t.Helper()
	imgOnce.Do(func() {
		imgU = BuildChanProgs()
		imgVal, imgErr = kernel.BuildShared(vm.ConfigSafe, true, imgU.M)
	})
	if imgErr != nil {
		t.Fatalf("shared image: %v", imgErr)
	}
	return imgVal, imgU
}

func newPair(t *testing.T) (*Supervisor, *userland.U) {
	t.Helper()
	img, u := sharedImage(t)
	sup, err := NewSupervisor(img, 2)
	if err != nil {
		t.Fatalf("boot fleet: %v", err)
	}
	sup.Connect(0, 1)
	return sup, u
}

func run(t *testing.T, d *Domain, u *userland.U, prog string, arg uint64) int64 {
	t.Helper()
	got, err := d.Sys.RunUser(u.M.Func(prog), arg, 50_000_000)
	if err != nil {
		t.Fatalf("domain %d: %s(%d): %v", d.ID, prog, arg, err)
	}
	return int64(got)
}

// TestDomainSmoke is the `make domsmoke` payload: two domains from one
// shared image, a channel ping, an induced kill with fail-closed sends,
// a supervised microreboot, and a working channel afterwards.
func TestDomainSmoke(t *testing.T) {
	sup, u := newPair(t)
	a, b := sup.Domains[0], sup.Domains[1]

	if a.BootCycles != b.BootCycles {
		t.Errorf("divergent boots from one image: %d vs %d cycles", a.BootCycles, b.BootCycles)
	}

	// Ping A -> B.
	if rc := run(t, a, u, "chan_send", 4242); rc != 0 {
		t.Fatalf("send A->B: rc = %d, want 0", rc)
	}
	if rc := run(t, b, u, "chan_recv", 0); rc != 4242 {
		t.Fatalf("recv on B = %d, want 4242", rc)
	}
	if rc := run(t, b, u, "chan_recv", 0); rc != -abi.EAGAIN {
		t.Fatalf("drained recv on B = %d, want -EAGAIN (%d)", rc, -abi.EAGAIN)
	}

	// Kill A: B's sends fail closed with the distinguishable errno, and
	// keep doing so (the refused send never consumes B's posted work).
	sup.Kill(0, CauseInduced, "test kill")
	for i := 0; i < 3; i++ {
		if rc := run(t, b, u, "chan_send", 7); rc != -abi.EHOSTDOWN {
			t.Fatalf("send to dead domain: rc = %d, want -EHOSTDOWN (%d)", rc, -abi.EHOSTDOWN)
		}
	}
	if a.State != StateDead || a.LastCause != CauseInduced {
		t.Fatalf("domain A after kill: state %v cause %v", a.State, a.LastCause)
	}

	// Microreboot A; the channel comes back and traffic flows both ways.
	if err := sup.Reboot(0); err != nil {
		t.Fatalf("reboot A: %v", err)
	}
	if a.State != StateRunning || a.Reboots != 1 {
		t.Fatalf("domain A after reboot: state %v reboots %d", a.State, a.Reboots)
	}
	if a.LastRecover != sup.BackoffBase+a.BootCycles {
		t.Errorf("recovery accounting: got %d, want backoff %d + boot %d",
			a.LastRecover, sup.BackoffBase, a.BootCycles)
	}
	if rc := run(t, b, u, "chan_send", 99); rc != 0 {
		t.Fatalf("send B->A after reboot: rc = %d, want 0", rc)
	}
	if rc := run(t, a, u, "chan_recv", 0); rc != 99 {
		t.Fatalf("recv on rebooted A = %d, want 99", rc)
	}
	if rc := run(t, a, u, "chan_send", 17); rc != 0 {
		t.Fatalf("send A->B after reboot: rc = %d, want 0", rc)
	}
	if rc := run(t, b, u, "chan_recv", 0); rc != 17 {
		t.Fatalf("recv on B after reboot = %d, want 17", rc)
	}
}

// TestConcurrentSiblings runs guest work in both domains simultaneously —
// the shape the race detector must bless: two machines, two VMs, one
// shared translation cache, one link.
func TestConcurrentSiblings(t *testing.T) {
	sup, u := newPair(t)
	var wg sync.WaitGroup
	rcs := [2]int64{}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := sup.Domains[i]
			got, err := d.Sys.RunUser(u.M.Func("chan_pump"), 8, 50_000_000)
			if err != nil {
				t.Errorf("domain %d pump: %v", i, err)
				return
			}
			rcs[i] = int64(got)
		}(i)
	}
	wg.Wait()
	for i, rc := range rcs {
		if rc != 8 {
			t.Errorf("domain %d pumped %d/8 messages", i, rc)
		}
	}
	// Drain both sides: 8 messages each, values 100..107.
	for i := 0; i < 2; i++ {
		var sum int64
		for j := 0; j < 8; j++ {
			v := run(t, sup.Domains[i], u, "chan_recv", 0)
			if v < 0 {
				t.Fatalf("domain %d recv %d: rc = %d", i, j, v)
			}
			sum += v
		}
		if want := int64(100 + 101 + 102 + 103 + 104 + 105 + 106 + 107); sum != want {
			t.Errorf("domain %d drained sum %d, want %d", i, sum, want)
		}
		if rc := run(t, sup.Domains[i], u, "chan_recv", 0); rc != -abi.EAGAIN {
			t.Errorf("domain %d overdrain rc = %d, want -EAGAIN", i, rc)
		}
	}
}

// TestQuarantineSurvivesMicroreboot: a pool quarantined in one incarnation
// stays quarantined in the next — dying must not launder the verdict.
func TestQuarantineSurvivesMicroreboot(t *testing.T) {
	sup, _ := newPair(t)
	a := sup.Domains[0]
	if len(a.Sys.VM.Pools.Pools) == 0 {
		t.Fatal("safe-config domain has no metapools")
	}
	victim := a.Sys.VM.Pools.Pools[0]
	victim.Quarantine()

	// The supervisor observes the quarantine as a death verdict even
	// though the last run returned no error.
	if c := sup.Observe(0, nil); c != CauseQuarantine {
		t.Fatalf("Observe = %v, want quarantine", c)
	}
	if err := sup.Reboot(0); err != nil {
		t.Fatalf("reboot: %v", err)
	}
	names := a.Sys.VM.Pools.QuarantinedNames()
	found := false
	for _, n := range names {
		if n == victim.Name {
			found = true
		}
	}
	if !found {
		t.Errorf("pool %q not quarantined after microreboot (ledger: %v)", victim.Name, names)
	}
}

// TestPermanentFail: the reboot budget is finite; past it the domain is
// failed forever and peers keep getting the fail-closed errno.
func TestPermanentFail(t *testing.T) {
	sup, u := newPair(t)
	sup.MaxReboots = 2
	for i := 0; i < 2; i++ {
		sup.Kill(0, CauseInduced, "chaos monkey")
		if err := sup.Reboot(0); err != nil {
			t.Fatalf("reboot %d: %v", i, err)
		}
		if want := sup.BackoffBase << uint(i); sup.Domains[0].LastRecover-sup.Domains[0].BootCycles != want {
			t.Errorf("reboot %d backoff = %d, want %d (exponential schedule)",
				i, sup.Domains[0].LastRecover-sup.Domains[0].BootCycles, want)
		}
	}
	sup.Kill(0, CauseInduced, "chaos monkey")
	if err := sup.Reboot(0); !errors.Is(err, ErrPermanentFail) {
		t.Fatalf("reboot past budget: err = %v, want ErrPermanentFail", err)
	}
	if sup.Domains[0].State != StateFailed {
		t.Fatalf("state = %v, want FAILED", sup.Domains[0].State)
	}
	if err := sup.Reboot(0); !errors.Is(err, ErrPermanentFail) {
		t.Fatalf("reboot of failed domain: err = %v, want ErrPermanentFail", err)
	}
	if rc := run(t, sup.Domains[1], u, "chan_send", 1); rc != -abi.EHOSTDOWN {
		t.Errorf("send to permanently failed domain: rc = %d, want -EHOSTDOWN", rc)
	}
}

// TestClassify maps ladder outcomes to supervisor causes.
func TestClassify(t *testing.T) {
	v := vm.New(hw.NewMachine(0, 1), vm.ConfigNative)
	cases := []struct {
		name string
		prep func(*vm.VM)
		err  error
		want Cause
	}{
		{"healthy", nil, nil, CauseNone},
		{"host-recover", nil, &kernel.HostPanicError{CPU: 1, Val: "boom"}, CauseHostRecover},
		{"oops-storm", nil, &vm.FailStop{Reason: "oops storm: 65 consecutive faults in the recovery path"}, CauseOopsStorm},
		{"watchdog-failstop", nil, &vm.FailStop{Reason: "watchdog: trap handler exceeded fuel"}, CauseWatchdog},
		{"failstop", nil, &vm.FailStop{Reason: "double fault in interrupt context"}, CauseFailStop},
		{"watchdog-counter", func(v *vm.VM) { v.Counters.WatchdogFaults++ }, errors.New("guest fault"), CauseWatchdog},
	}
	for _, c := range cases {
		fresh := *v // shallow reset of counters per case
		if c.prep != nil {
			c.prep(&fresh)
		}
		got, _ := Classify(&fresh, c.err)
		if got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestObserveRealWatchdog drives an actual ladder death — a runaway trap
// handler — and checks the supervisor classifies and recovers it.
func TestObserveRealWatchdog(t *testing.T) {
	sup, u := newPair(t)
	a := sup.Domains[0]
	a.Sys.VM.WatchdogFuel = 10_000 // far below one chan_pump's appetite
	_, runErr := a.Sys.RunUser(u.M.Func("chan_pump"), 1<<30, 5_000_000)
	if c := sup.Observe(0, runErr); c == CauseNone {
		t.Fatalf("runaway guest classified healthy (err=%v)", runErr)
	}
	if a.State != StateDead {
		t.Fatalf("state = %v, want dead", a.State)
	}
	if err := sup.Reboot(0); err != nil {
		t.Fatalf("reboot after watchdog: %v", err)
	}
	if rc := run(t, sup.Domains[1], u, "chan_send", 5); rc != 0 {
		t.Fatalf("send to recovered domain: rc = %d", rc)
	}
}
