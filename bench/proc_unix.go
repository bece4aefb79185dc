//go:build unix

package main

import (
	"syscall"
	"time"
)

func readRusage() (rusage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return rusage{}, err
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return rusage{
		user:        tv(ru.Utime),
		sys:         tv(ru.Stime),
		maxRSSKB:    int64(ru.Maxrss), // kilobytes on Linux
		ctxSwitches: int64(ru.Nvcsw) + int64(ru.Nivcsw),
	}, nil
}
