// Command sva-verify is the bytecode verifier: the small, trusted checker
// of paper §5.  It decodes a bytecode module, runs structural SSA/type
// verification, and re-checks the metapool annotations the (untrusted)
// safety-checking compiler produced.
//
// Usage:
//
//	sva-verify mod.sva            verify a bytecode file
//	sva-verify -kernel            build + safety-compile + verify the kernel
//	sva-verify -kernel -inject aliasing   demonstrate detection of an injected bug
//	sva-verify -kinds             list the bug kinds -inject accepts
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sva/internal/bytecode"
	"sva/internal/ir"
	"sva/internal/kernel"
	"sva/internal/safety"
	"sva/internal/typecheck"
)

func main() {
	useKernel := flag.Bool("kernel", false, "verify the bundled safety-compiled kernel")
	dis := flag.Bool("dis", false, "print the module's textual IR (disassemble)")
	var kinds []string
	for _, k := range typecheck.BugKinds() {
		kinds = append(kinds, k.String())
	}
	inject := flag.String("inject", "", "inject a pointer-analysis bug first ("+strings.Join(kinds, "|")+")")
	listKinds := flag.Bool("kinds", false, "print the bug kinds -inject accepts, one per line, and exit")
	flag.Parse()

	if *listKinds {
		fmt.Println(strings.Join(kinds, "\n"))
		return
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "sva-verify:", err)
		os.Exit(1)
	}
	// An -inject that cannot be carried out exits 2, so that exit status
	// 1 always means the verifier rejected the module.
	usage := func(err error) {
		fmt.Fprintln(os.Stderr, "sva-verify:", err)
		os.Exit(2)
	}

	var mod *ir.Module
	if *useKernel {
		img := kernel.Build()
		if _, err := safety.Compile(kernel.SafetyConfig(true), img.Kernel); err != nil {
			fail(err)
		}
		mod = img.Kernel
	} else {
		if flag.NArg() != 1 {
			fail(fmt.Errorf("need a bytecode file or -kernel"))
		}
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		if blob, serr := os.ReadFile(flag.Arg(0) + ".sig"); serr == nil {
			if err := bytecode.VerifyFile(data, blob); err != nil {
				fail(err)
			}
			fmt.Println("signature: OK")
		}
		mod, err = bytecode.Decode(data)
		if err != nil {
			fail(err)
		}
	}

	if *inject != "" {
		kind, ok := typecheck.ParseBugKind(*inject)
		if !ok {
			usage(fmt.Errorf("unknown bug kind %q", *inject))
		}
		desc, ok := typecheck.InjectBug(kind, 0, mod.Metapools, mod)
		if !ok {
			usage(fmt.Errorf("no injection site for %s", *inject))
		}
		fmt.Println("injected:", desc)
	}

	if *dis {
		fmt.Print(mod.String())
	}
	structural := ir.VerifyModule(mod)
	for _, e := range structural {
		fmt.Println("structural:", e)
	}
	c := typecheck.New(mod.Metapools)
	pools := c.Check(mod)
	for i, e := range pools {
		if i >= 20 {
			fmt.Printf("... and %d more\n", len(pools)-i)
			break
		}
		fmt.Println("metapool:", e)
	}
	if len(structural)+len(pools) == 0 {
		fmt.Printf("%s: OK (%d functions, %d metapools)\n", mod.Name, len(mod.Funcs), len(mod.Metapools))
		return
	}
	os.Exit(1)
}
