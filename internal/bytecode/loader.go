package bytecode

import (
	"fmt"

	"sva/internal/ir"
	"sva/internal/vm"
)

// LoadTranslated is the load-time translation path the signing layer was
// built for (paper §3.4): decode and verify-load a bytecode image into a
// VM, then ensure the signed cache holds a translation for the VM's exact
// configuration — reusing a verified cached entry when one exists, or
// translating now and caching the result.  It reports whether the
// translation came from the cache.
//
// The cache is consulted per (image hash, config): a translation built
// for sva-safe is never handed to an sva-llvm VM or vice versa, and both
// may coexist for the same image.
func LoadTranslated(v *vm.VM, c *Cache, image []byte, user bool) (*ir.Module, bool, error) {
	m, err := Decode(image)
	if err != nil {
		return nil, false, fmt.Errorf("bytecode: decoding image: %w", err)
	}
	if errs := ir.VerifyModule(m); len(errs) != 0 {
		return nil, false, fmt.Errorf("bytecode: image fails verification: %v", errs[0])
	}
	if err := v.LoadModule(m, user); err != nil {
		return nil, false, err
	}
	if !v.Cfg.Translated() {
		return m, false, nil // gcc-compiled configs keep no signed translation
	}
	cfg := v.Cfg.String()
	if c != nil {
		e, err := c.Get(image, cfg)
		if err == nil && e != nil {
			// Signed translation for this exact (image, config): the VM
			// still translates lazily on first call, but the load-time
			// contract — verified bytecode paired with a verified
			// translation — is satisfied without re-deriving the blob.
			return m, true, nil
		}
		// Miss or evicted-corrupt entry: fall through and (re)translate.
	}
	blob, err := v.TranslateModule(m)
	if err != nil {
		return nil, false, err
	}
	if c != nil {
		c.Put(image, blob, cfg)
	}
	return m, false, nil
}
