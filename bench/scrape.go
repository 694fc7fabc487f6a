package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"fafnet/internal/obs"
)

// scrape is one reading of the metric registry in Prometheus text form:
// sample name with its label set → value. The bench reads the registry the
// way an operator's scraper would and registers nothing in it.
type scrape map[string]float64

// scrapeRegistry renders obs.Default and parses it back.
func scrapeRegistry() (scrape, error) {
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseScrape(b.String())
}

// parseScrape parses Prometheus text exposition (version 0.0.4) lines of
// the form `name{labels} value`; comments and blank lines are skipped.
func parseScrape(text string) (scrape, error) {
	out := make(scrape)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// A label value may hold a space, the sample value never does.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("scrape: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after − before per sample. A sample that went backwards was
// reset in between (a counter only grows), so everything it now holds
// accrued after the reset and its delta is its new value. Gauges are read
// from the second scrape directly, never through delta.
func delta(before, after scrape) scrape {
	out := make(scrape, len(after))
	for k, v := range after {
		if b := before[k]; v >= b {
			out[k] = v - b
		} else {
			out[k] = v
		}
	}
	return out
}

// sum adds every sample of one family whose label set contains all the
// given `key="value"` fragments.
func (s scrape) sum(family string, labels ...string) float64 {
	var total float64
	for k, v := range s {
		name, rest, _ := strings.Cut(k, "{")
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
