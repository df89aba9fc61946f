package bytecode

import (
	"strings"
	"testing"

	"sva/internal/hw"
	"sva/internal/vm"
)

func testCache(t *testing.T) *Cache {
	t.Helper()
	seed := make([]byte, 32)
	for i := range seed {
		seed[i] = byte(i)
	}
	signer, err := NewSigner(seed)
	if err != nil {
		t.Fatal(err)
	}
	return NewCache(signer)
}

// TestCacheConfigKeying is the regression test for the hash-only cache
// key: translations for different configurations of the same bytecode
// image must coexist, and Get must never hand a VM a translation built
// for another configuration.  On the old cache the second Put overwrote
// the first (same ModuleHash), so the sva-safe lookup came back with the
// sva-llvm blob.
func TestCacheConfigKeying(t *testing.T) {
	cache := testCache(t)
	image, err := Encode(sampleModule())
	if err != nil {
		t.Fatal(err)
	}

	cache.Put(image, []byte("safe-translation"), "sva-safe")
	cache.Put(image, []byte("llvm-translation"), "sva-llvm")

	for _, tc := range []struct{ config, want string }{
		{"sva-safe", "safe-translation"},
		{"sva-llvm", "llvm-translation"},
	} {
		e, err := cache.Get(image, tc.config)
		if err != nil || e == nil {
			t.Fatalf("Get(%s) = %v, %v", tc.config, e, err)
		}
		if string(e.Translation) != tc.want {
			t.Errorf("Get(%s) returned %q, want %q — configs overwrote each other",
				tc.config, e.Translation, tc.want)
		}
		if e.Config != tc.config {
			t.Errorf("Get(%s) returned an entry labeled %q", tc.config, e.Config)
		}
	}

	// A configuration that never stored a translation must miss, not
	// receive another configuration's entry.
	if e, err := cache.Get(image, "sva-gcc"); e != nil || err != nil {
		t.Errorf("Get for unstored config = %v, %v; want miss", e, err)
	}
}

// TestLoadTranslated wires the cache through the VM's load-time
// translation: first load translates and populates the cache, a second VM
// of the same configuration reuses the signed entry, and a VM of a
// different configuration gets its own translation rather than the
// other's.
func TestLoadTranslated(t *testing.T) {
	cache := testCache(t)
	image, err := Encode(sampleModule())
	if err != nil {
		t.Fatal(err)
	}

	boot := func(cfg vm.Config) *vm.VM {
		return vm.New(hw.NewMachine(0, 16), cfg)
	}

	if _, hit, err := LoadTranslated(boot(vm.ConfigSafe), cache, image, false); err != nil || hit {
		t.Fatalf("first safe load: hit=%v err=%v; want cold translation", hit, err)
	}
	if _, hit, err := LoadTranslated(boot(vm.ConfigSafe), cache, image, false); err != nil || !hit {
		t.Fatalf("second safe load: hit=%v err=%v; want cache hit", hit, err)
	}
	// Different config: its own translation, not the cached sva-safe one.
	if _, hit, err := LoadTranslated(boot(vm.ConfigSVALLVM), cache, image, false); err != nil || hit {
		t.Fatalf("llvm load: hit=%v err=%v; want cold translation", hit, err)
	}
	if _, hit, err := LoadTranslated(boot(vm.ConfigSVALLVM), cache, image, false); err != nil || !hit {
		t.Fatalf("second llvm load: hit=%v err=%v; want cache hit", hit, err)
	}
	// gcc-compiled configs (native, sva-gcc) never touch the cache.
	misses := cache.Misses
	if _, hit, err := LoadTranslated(boot(vm.ConfigNative), cache, image, false); err != nil || hit {
		t.Fatalf("native load: hit=%v err=%v", hit, err)
	}
	if cache.Misses != misses {
		t.Error("native config consulted the translation cache")
	}

	// The cached blobs are per-config summaries of the compiled form.
	e, err := cache.Get(image, "sva-safe")
	if err != nil || e == nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(e.Translation), "sva-translation config=sva-safe\n") {
		t.Errorf("cached blob header: %q", e.Translation[:40])
	}
}
