//go:build !unix

package main

import "errors"

func readRusage() (rusage, error) {
	return rusage{}, errors.New("getrusage is not available on this platform")
}
