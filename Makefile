# Tier-1 gate plus the race-sensitive packages this repo parallelizes.
GO ?= go

.PHONY: all build test vet lint race check equiv bench benchbuild tables chaos netsmoke domsmoke smpsmoke16

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static diagnostics: go vet, then staticcheck/govulncheck when the host has
# them (CI images may; this repo never installs tools), then sva-lint's
# kernel-invariant rules over every built-in target.  The JSON artifact is
# what CI uploads.
lint: vet
	@command -v staticcheck >/dev/null 2>&1 && staticcheck ./... || echo "lint: staticcheck not installed, skipping"
	@command -v govulncheck >/dev/null 2>&1 && govulncheck ./... || echo "lint: govulncheck not installed, skipping"
	$(GO) run ./cmd/sva-lint -target all -json sva-lint.json

# Threaded-engine oracle gate: the engine-on and engine-off twins must
# produce bit-identical verdicts, virtual time and trap behavior across
# the exploit battery, the randomized programs and the vm-level suites.
equiv:
	$(GO) test -run 'Equivalence' ./internal/vm/ ./internal/exploits/ ./internal/safety/

# The bench harness and the fault campaign fan out goroutines per kernel
# config, per table job and per injection run, and SMP runs sibling VCPUs
# concurrently (with the threaded engine on by default, so the shared
# translation cache races too); race the whole tree at 1 and 4 host CPUs
# so both the serial and the parallel schedules are exercised.
race:
	$(GO) test -race -cpu=1,4 ./...

# Descriptor-ring serving smoke: the net table at reduced scale.  The
# harness fails the row on any lost request, bad checksum or malformed
# descriptor, so this is a conservation gate, not just a perf printout.
netsmoke:
	$(GO) run ./cmd/sva-bench -table=net -scale=8

# Multi-domain smoke: two domains boot off one shared image, trade a
# channel ping, one is killed and microrebooted while the sibling's sends
# fail closed — all under the race detector, because the two VMs share a
# read-only image and one translation cache.
domsmoke:
	$(GO) test -race -run 'TestDomainSmoke|TestConcurrentSiblings' ./internal/domain/

# 16-VCPU scaling smoke: boot and dispatch at the lifted VCPU ceiling,
# then an abbreviated fault campaign (one seed per class) against a
# 16-VCPU system — all under the race detector, because sixteen sibling
# VCPUs hammer the sharded metapool write paths and epoch reclamation
# concurrently.  Any host escape fails the target.
smpsmoke16:
	$(GO) test -race -run 'TestSMPDispatch|TestSMPSmoke16' ./internal/kernel/ ./internal/faultinject/campaign/

# The benchmark (bench/) is a nested Go module that ./... does not reach:
# compile and vet it so an API change in the main module cannot silently
# break it.  Needs no network (bench/go.mod only replaces sva => ../).
benchbuild:
	cd bench && $(GO) vet .

check: build lint test equiv race netsmoke domsmoke smpsmoke16 benchbuild

# Fixed-seed fault-injection smoke: three classes through sva-run plus a
# one-seed-per-class campaign table.  Any host escape fails the target.
chaos:
	$(GO) run ./cmd/sva-run -prog=pipeecho -arg=4096 -chaos=splay:7
	$(GO) run ./cmd/sva-run -prog=hello -chaos=oom:3
	$(GO) run ./cmd/sva-run -prog=pipeecho -arg=65536 -chaos=icrestore:1
	$(GO) run ./cmd/sva-bench -table=faults -seeds=1

bench:
	$(GO) test -bench . -benchtime=1x -run '^$$' .

tables:
	$(GO) run ./cmd/sva-bench -table=all -scale=8
