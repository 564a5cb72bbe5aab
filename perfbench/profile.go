package main

import (
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// hostLayers are the layers host.self_frac.* reports, in print order:
// the benchmark's generators, the wafl facade, each internal module, the
// always-on histograms (obs), and the Go runtime's allocator/GC and
// scheduler. "unmapped" is whatever none of them claims.
var hostLayers = []string{
	"workload", "wafl", "sim", "waffinity", "nvlog", "core", "bitmap", "cp",
	"aggregate", "raid", "storage", "bcache", "fs", "block", "obs",
	"runtime.alloc_gc", "runtime.sched", "unmapped",
}

// moduleLayer maps a Go package path to its layer, or "" for a helper
// (standard library, runtime internals) whose cost belongs to its caller.
func moduleLayer(pkg string) string {
	switch {
	case pkg == "main":
		return "workload"
	case pkg == "wafl":
		return "wafl"
	case strings.HasPrefix(pkg, "wafl/internal/"):
		mod := strings.TrimPrefix(pkg, "wafl/internal/")
		if i := strings.IndexByte(mod, '/'); i >= 0 {
			mod = mod[:i]
		}
		if mod == "counters" {
			return "core" // the allocator's loose accounting
		}
		for _, l := range hostLayers {
			if l == mod {
				return l
			}
		}
		return "unmapped" // snap, clone, faultinject: not measured
	case strings.HasPrefix(pkg, "wafl/"):
		return "unmapped"
	}
	return ""
}

// runtimeAllocGC and runtimeSched classify Go runtime frames by function
// name prefix (after "runtime.").
var runtimeAllocGC = []string{
	"mallocgc", "newobject", "newarray", "makeslice", "makemap", "growslice",
	"memclr", "gc", "mark", "scan", "greyobject", "sweep", "bgsweep",
	"bgscavenge", "scavenge", "heapBits", "heapSetType", "wbBuf",
	"bulkBarrier", "findObject", "nextFreeFast", "deductAssistCredit",
	"sysAlloc", "sysUsed", "sysUnused", "madvise", "typePointers", "spanOf",
	"writeHeapBits", "profilealloc", "persistentalloc", "fillAligned",
	"(*mspan)", "(*mheap)", "(*mcache)", "(*mcentral)", "(*gcWork)",
	"(*gcBits)", "(*pageAlloc)", "(*spanSet)", "(*sweepLocked)",
	"(*gcControllerState)", "(*scavengerState)", "(*limiterEvent)",
	"(*typePointers)", "(*markBits)", "(*pallocBits)", "(*pallocData)",
	"(*fixalloc)", "(*gcCPULimiterState)", "(*activeSweep)", "_GC",
	"(*wbBuf)", "(*mSpanList)", "(*heapArena)", "(*consistentHeapStats)",
	"(*sweepClass)", "(*stackScanState)",
	"shade", "assistAlloc", "getempty", "putempty", "freeSomeWbufs",
}

var runtimeSched = []string{
	"chansend", "chanrecv", "closechan", "selectgo", "selectnb", "send",
	"recv", "gopark", "goready",
	"ready", "park_m", "schedule", "findRunnable", "runqget", "runqgrab",
	"runqput", "runqsteal", "globrunq", "mcall", "gosched", "Gosched",
	"futex", "notesleep", "notewakeup", "notetsleep", "lock",
	"unlock", "semasleep", "semawakeup", "semacquire", "semrelease", "stopm",
	"startm", "wakep", "handoffp", "casgstatus", "casGToPreemptScan",
	"execute", "goexit", "usleep", "osyield", "netpoll", "mPark", "acquirep",
	"releasep", "newproc", "gfget", "gfput", "morestack", "newstack",
	"copystack", "stackalloc", "stackfree", "mstart", "checkTimers",
	"nanotime", "resetspinning", "injectglist", "entersyscall",
	"exitsyscall", "reentersyscall", "(*waitq)", "(*timers)", "(*hchan)",
	"(*timer)", "mProfCycle", "_System", "sigprof",
	"(*profBuf)", "procyield", "runtimer", "preempt",
	"asyncPreempt", "doSigPreempt", "sighandler", "sigtramp", "sigreturn",
	"tgkill", "signalM", "retake", "sysmon", "goyield",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// funcPackage returns the package path of a Go symbol name such as
// "wafl/internal/core.(*Infra).fill" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// sampleLayer attributes one profile sample, given its stack leaf-first,
// to a layer: the first frame that belongs to a layer claims the sample.
// Runtime allocation/GC and scheduling frames claim it for the runtime;
// other runtime and standard-library helpers (memmove, map access, sort)
// are charged to their caller.
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") {
			name := strings.TrimPrefix(fn, pkg+".")
			switch {
			case strings.HasPrefix(pkg, "internal/runtime/syscall"):
				return "runtime.sched" // futex
			case hasAnyPrefix(name, runtimeAllocGC):
				return "runtime.alloc_gc"
			case hasAnyPrefix(name, runtimeSched):
				return "runtime.sched"
			}
			continue
		}
		if l := moduleLayer(pkg); l != "" {
			return l
		}
	}
	return "unmapped"
}

// profileLayers reads a CPU profile's stacks with the Go toolchain
// (go tool pprof -traces) and returns sample time per layer, in seconds.
func profileLayers(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return traceLayers(string(out))
}

// traceLayers splits pprof -traces output into samples and attributes
// each to a layer. A sample is a block between separator lines: its first
// line holds the sample's time and leaf frame, each further line one
// caller. Inlined frames carry an " (inline)" suffix.
func traceLayers(traces string) (map[string]float64, error) {
	out := make(map[string]float64)
	var stack []string
	var secs float64
	flush := func() {
		if len(stack) > 0 {
			out[sampleLayer(stack)] += secs
		}
		stack = stack[:0]
	}
	for _, line := range strings.Split(traces, "\n") {
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
		case strings.HasPrefix(line, " "):
			fields := strings.Fields(line)
			if len(stack) == 0 {
				d, err := time.ParseDuration(fields[0])
				if err != nil {
					return nil, fmt.Errorf("pprof -traces: sample %q: %w", line, err)
				}
				secs, fields = d.Seconds(), fields[1:]
			}
			stack = append(stack, fields[0])
		}
	}
	flush()
	if len(out) == 0 {
		return nil, fmt.Errorf("pprof -traces: no samples")
	}
	return out, nil
}
