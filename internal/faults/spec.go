package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseSpec parses a comma-separated chaos specification of key=value
// pairs into a Config, for command-line use:
//
//	seed=42,udp-drop=0.3,tcp-stall=0.05,udp-delay=20ms
//
// Keys: seed, udp-drop, udp-corrupt, udp-trunc, udp-delay, tcp-dial-err,
// tcp-reset, tcp-stall, tcp-byte-delay. Rates are probabilities in [0,1];
// delays use Go duration syntax.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, value, found := strings.Cut(part, "=")
		if !found {
			return Config{}, fmt.Errorf("faults: bad spec %q: want key=value", part)
		}
		key, value = strings.TrimSpace(key), strings.TrimSpace(value)
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(value, 10, 64)
		case "udp-drop":
			cfg.UDPDropRate, err = strconv.ParseFloat(value, 64)
		case "udp-corrupt":
			cfg.UDPCorruptRate, err = strconv.ParseFloat(value, 64)
		case "udp-trunc":
			cfg.UDPTruncRate, err = strconv.ParseFloat(value, 64)
		case "udp-delay":
			cfg.UDPDelay, err = time.ParseDuration(value)
		case "tcp-dial-err":
			cfg.TCPDialErrRate, err = strconv.ParseFloat(value, 64)
		case "tcp-reset":
			cfg.TCPResetRate, err = strconv.ParseFloat(value, 64)
		case "tcp-stall":
			cfg.TCPStallRate, err = strconv.ParseFloat(value, 64)
		case "tcp-byte-delay":
			cfg.TCPByteDelay, err = time.ParseDuration(value)
		default:
			return Config{}, fmt.Errorf("faults: unknown spec key %q", key)
		}
		if err != nil {
			return Config{}, fmt.Errorf("faults: spec %q: %w", part, err)
		}
	}
	if err := cfg.validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
