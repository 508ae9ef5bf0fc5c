package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// exposition is one parsed GET /metrics response: every sample keyed by
// its full series name, labels included.
type exposition map[string]float64

// parseExposition reads the Prometheus text format the daemons serve.
// Comment lines are skipped; a timestamp after the value is ignored.
func parseExposition(r io.Reader) (exposition, error) {
	out := exposition{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// Label values may hold spaces, so the series ends at the closing
		// brace when there is one.
		split := strings.IndexByte(line, ' ')
		if i := strings.LastIndexByte(line, '}'); i >= 0 {
			split = i + 1
		}
		if split <= 0 || split >= len(line) {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		fields := strings.Fields(line[split:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:split])] = v
	}
	return out, sc.Err()
}

// sum adds every series of the named metric, whatever its labels.
func (e exposition) sum(name string) float64 {
	total := 0.0
	for k, v := range e {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// add accumulates another scrape into e, series by series: maxima by
// maximum, everything else by sum.
func (e exposition) add(o exposition) {
	for k, v := range o {
		if strings.Contains(k, "_max_") || strings.Contains(k, `stat="max"`) {
			e[k] = max(e[k], v)
		} else {
			e[k] += v
		}
	}
}

// scrape fetches and parses base/metrics.
func scrape(ctx context.Context, hc *http.Client, base string) (exposition, error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", base, resp.StatusCode)
	}
	return parseExposition(resp.Body)
}
