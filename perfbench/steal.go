package main

import (
	"bytes"
	"os"
	"strconv"
)

// On a virtual machine the hypervisor may run other guests on the CPUs this
// one wants: the guest's clock runs on while none of its work does, and the
// kernel counts that time as steal. On a shared host a run can lose a third
// or more of its CPU time that way for tens of seconds at a time, stretching
// every wall-clock time by as much, whatever the program does. The gated
// wall times are therefore reported net of steal: a time t measured while
// the share s of the CPU time the machine asked for was stolen counts as
// t·(1 − s), the time it would have taken had the machine been given all
// of it. On a host that steals nothing s is 0 and t is unchanged.

// cpuTimes is the machine-wide CPU accounting of /proc/stat's "cpu" line,
// in clock ticks summed over all CPUs.
type cpuTimes struct {
	busy  uint64 // user, nice, system, irq, softirq
	steal uint64
	ok    bool
}

// readCPUTimes samples /proc/stat. Where it cannot be read ok is false, and
// no steal is seen.
func readCPUTimes() cpuTimes {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	return parseCPUTimes(raw)
}

// parseCPUTimes reads the aggregate "cpu" line of a /proc/stat text:
// user nice system idle iowait irq softirq steal ...
func parseCPUTimes(raw []byte) cpuTimes {
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return cpuTimes{}
	}
	var v [8]uint64
	for i := range v {
		var err error
		if v[i], err = strconv.ParseUint(string(f[i+1]), 10, 64); err != nil {
			return cpuTimes{}
		}
	}
	return cpuTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7], ok: true}
}

// stolen returns the share of the CPU time the machine wanted between two
// samples that went to other guests: steal / (busy + steal), in [0, 1].
func stolen(a, b cpuTimes) float64 {
	if !a.ok || !b.ok || b.steal < a.steal || b.busy < a.busy {
		return 0
	}
	st := b.steal - a.steal
	if want := b.busy - a.busy + st; want > 0 {
		return float64(st) / float64(want)
	}
	return 0
}
