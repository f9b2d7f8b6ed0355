package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
)

// pinnedSeeds is how many seeds pins.json covers: 0..pinnedSeeds-1. Every
// run is on one of them (see seedOffset).
const pinnedSeeds = 64

// pins.json holds the pin of every (workload, seed) for the pinned seeds,
// keyed by "workload/seed" (durable, whose seeds the farm derives, by
// "durable"). Regenerate it with `perfbench -pin > pins.json` after a
// change that is meant to move the simulated output.
//
//go:embed pins.json
var pinsJSON []byte

// pinned decodes pins.json on first use, so a set-up-only child, whose
// start-up is what setup_s times, never decodes it.
var pinned = sync.OnceValue(func() map[string]pin {
	m := map[string]pin{}
	if err := json.Unmarshal(pinsJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: pins.json: %v", err))
	}
	return m
})

// pinKey names a (workload, seed) pair in pins.json.
func pinKey(name string, seed int64) string {
	if name == wlDurable {
		return wlDurable
	}
	return name + "/" + strconv.FormatInt(seed, 10)
}

// pinFor returns the pin of a (workload, seed).
func pinFor(name string, seed int64) (pin, error) {
	p, ok := pinned()[pinKey(name, seed)]
	if !ok {
		return pin{}, fmt.Errorf("%s has no pin in pins.json (seeds 0..%d)", pinKey(name, seed), pinnedSeeds-1)
	}
	return p, nil
}

// seedOffset is the pinned seed a workload runs at for a seed argument:
// the argument modulo pinnedSeeds, unless pins.json marks that seed as
// halting, in which case the next pinned seed that is not.
func seedOffset(name string, seed int64) int64 {
	seed %= pinnedSeeds
	for range pinnedSeeds {
		if p, err := pinFor(name, seed); err != nil || p.Halts == "" {
			return seed
		}
		seed = (seed + 1) % pinnedSeeds
	}
	return seed
}

// printPins runs every workload once at each pinned seed (durable once, as
// five sessions outside the farm) and prints their pins as pins.json.
func printPins() error {
	m := map[string]pin{}
	for _, name := range workloadNames {
		for seed := int64(0); seed < pinnedSeeds; seed++ {
			key := pinKey(name, seed)
			if _, done := m[key]; done {
				continue
			}
			r, err := setUpSessions(name, seed, nil)
			if err != nil {
				return err
			}
			rd, err := r.run(context.Background(), nil)
			if err != nil {
				return err
			}
			p := pinOf(rd)
			for _, in := range rd.Insts {
				if in.Err != "" {
					p = pin{Halts: fmt.Sprintf("%s (seed %d): %s", in.Profile, in.Seed, in.Err)}
					break
				}
			}
			m[key] = p
			fmt.Fprintf(os.Stderr, "pinned %s: CPI %.3f, %d shape checks off %s\n", key, rd.CPI, len(rd.Off), p.Halts)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	return enc.Encode(m)
}
