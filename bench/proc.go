package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Kernel- and process-counter readers. Each returns an error when its
// source cannot be read; callers then report the metric as unreadable
// with the reason, never as a silent 0.

// rusage is the slice of getrusage(2) the ledger uses.
type rusage struct {
	user, sys   time.Duration
	maxRSSKB    int64
	ctxSwitches int64 // voluntary + involuntary
}

func (r rusage) cpu() time.Duration { return r.user + r.sys }

// netCounters are the two /proc/net/snmp counters that tell whether a
// workload touched the network at all, and how often.
type netCounters struct {
	tcpActiveOpens  int64
	udpOutDatagrams int64
}

func readNetCounters() (netCounters, error) {
	raw, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return netCounters{}, err
	}
	return parseNetCounters(string(raw))
}

// parseNetCounters reads the header/value line pairs of /proc/net/snmp.
func parseNetCounters(text string) (netCounters, error) {
	field := func(proto, name string) (int64, error) {
		var header []string
		for _, line := range strings.Split(text, "\n") {
			if !strings.HasPrefix(line, proto+":") {
				continue
			}
			fields := strings.Fields(line)[1:]
			if header == nil {
				header = fields
				continue
			}
			for i, h := range header {
				if h == name && i < len(fields) {
					return strconv.ParseInt(fields[i], 10, 64)
				}
			}
		}
		return 0, fmt.Errorf("/proc/net/snmp: no %s %s", proto, name)
	}
	var nc netCounters
	var err error
	if nc.tcpActiveOpens, err = field("Tcp", "ActiveOpens"); err != nil {
		return nc, err
	}
	nc.udpOutDatagrams, err = field("Udp", "OutDatagrams")
	return nc, err
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ steal, total int64 }

func readCPUTimes() (cpuTimes, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, errors.New("/proc/stat: no aggregate cpu line with a steal column")
	}
	var ct cpuTimes
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user, so the sum stops at steal.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("/proc/stat: %w", err)
		}
		ct.total += v
		if i == 7 {
			ct.steal = v
		}
	}
	return ct, nil
}

// procSample is everything sampled at a slice boundary.
type procSample struct {
	wall   time.Time
	ru     rusage
	ruErr  error
	mem    runtime.MemStats
	net    netCounters
	netErr error
	cpu    cpuTimes
	cpuErr error
}

func takeProcSample() procSample {
	var s procSample
	s.wall = time.Now()
	s.ru, s.ruErr = readRusage()
	runtime.ReadMemStats(&s.mem)
	s.net, s.netErr = readNetCounters()
	s.cpu, s.cpuErr = readCPUTimes()
	return s
}

// reportProcess turns the counters sampled at the start and end of every
// timed interval into the proc.* metrics and the two socket rates. Only
// growth inside the intervals counts; an unreadable source is reported
// as such.
func reportProcess(out *outcome, starts, ends []procSample, reqs float64) {
	sum := func(delta func(a, b procSample) float64) float64 {
		var total float64
		for k := range starts {
			total += delta(starts[k], ends[k])
		}
		return total
	}
	firstErr := func(pick func(procSample) error) error {
		for k := range starts {
			if err := pick(starts[k]); err != nil {
				return err
			}
			if err := pick(ends[k]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := firstErr(func(s procSample) error { return s.cpuErr }); err != nil {
		out.unreadable("proc.steal_share", err.Error())
	} else if dt := sum(func(a, b procSample) float64 { return float64(b.cpu.total - a.cpu.total) }); dt > 0 {
		out.set("proc.steal_share", sum(func(a, b procSample) float64 { return float64(b.cpu.steal - a.cpu.steal) })/dt)
		out.infof("/proc/stat steal share during the timed phase: %.4f", out.values["proc.steal_share"])
	} else {
		out.na("proc.steal_share", "no clock tick went by")
	}
	if err := firstErr(func(s procSample) error { return s.netErr }); err != nil {
		out.unreadable("icp.datagrams_per_req", err.Error())
		out.unreadable("netnode.tcp_opens_per_req", err.Error())
	} else {
		out.set("icp.datagrams_per_req", sum(func(a, b procSample) float64 { return float64(b.net.udpOutDatagrams - a.net.udpOutDatagrams) })/reqs)
		out.set("netnode.tcp_opens_per_req", sum(func(a, b procSample) float64 { return float64(b.net.tcpActiveOpens - a.net.tcpActiveOpens) })/reqs)
	}
	if err := firstErr(func(s procSample) error { return s.ruErr }); err != nil {
		out.unreadable("proc.ctx_switches_per_req", err.Error())
	} else {
		out.set("proc.ctx_switches_per_req", sum(func(a, b procSample) float64 { return float64(b.ru.ctxSwitches - a.ru.ctxSwitches) })/reqs)
	}
	out.set("proc.gc_pause_ms", sum(func(a, b procSample) float64 { return float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6 }))
	out.set("proc.gc_cycles", sum(func(a, b procSample) float64 { return float64(b.mem.NumGC - a.mem.NumGC) }))
	out.set("proc.heap_mb", float64(ends[len(ends)-1].mem.HeapAlloc)/(1<<20))
}

// reportPeakRSS is taken when the workload ends; each workload runs in a
// process of its own, so the peak is that workload's.
func reportPeakRSS(out *outcome) {
	if ru, err := readRusage(); err != nil {
		out.unreadable("peak_rss_mb", err.Error())
	} else {
		out.set("peak_rss_mb", float64(ru.maxRSSKB)/1024)
	}
}
