package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promScrape is one reading of the daemon's /metrics: series key →
// value, the key being the metric name followed by its labels sorted by
// name, e.g. `energysched_wal_append_seconds_sum{fleet="r1"}`.
type promScrape map[string]float64

// seriesKey builds the canonical key of a series. labels alternate
// name, value.
func seriesKey(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+"="+strconv.Quote(labels[i+1]))
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// parseProm reads the Prometheus text exposition format (comments,
// `name value` and `name{l="v",...} value` lines; label values with
// \\, \" and \n escapes).
func parseProm(r io.Reader) (promScrape, error) {
	out := promScrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, labels, rest, err := splitSeries(line)
		if err != nil {
			return nil, err
		}
		// A timestamp may follow the value; only the value is kept.
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		out[seriesKey(name, labels...)] = v
	}
	return out, sc.Err()
}

// splitSeries cuts a sample line into its name, its labels (alternating
// name, unescaped value) and the text after them.
func splitSeries(line string) (name string, labels []string, rest string, err error) {
	brace := strings.IndexByte(line, '{')
	space := strings.IndexAny(line, " \t")
	if brace < 0 || (space >= 0 && space < brace) {
		if space < 0 {
			return "", nil, "", fmt.Errorf("metrics: no value in %q", line)
		}
		return line[:space], nil, line[space+1:], nil
	}
	name = line[:brace]
	i := brace + 1
	for {
		for i < len(line) && (line[i] == ',' || line[i] == ' ') {
			i++
		}
		if i < len(line) && line[i] == '}' {
			return name, labels, line[i+1:], nil
		}
		eq := strings.IndexByte(line[i:], '=')
		if eq < 0 || i+eq+1 >= len(line) || line[i+eq+1] != '"' {
			return "", nil, "", fmt.Errorf("metrics: bad labels in %q", line)
		}
		lname := line[i : i+eq]
		i += eq + 2
		var val strings.Builder
		for {
			if i >= len(line) {
				return "", nil, "", fmt.Errorf("metrics: unterminated label in %q", line)
			}
			c := line[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' && i+1 < len(line) {
				i++
				switch line[i] {
				case 'n':
					c = '\n'
				default:
					c = line[i]
				}
			}
			val.WriteByte(c)
			i++
		}
		labels = append(labels, lname, val.String())
	}
}

// delta returns after[key] − before[key]; a series missing from a
// scrape counts as 0 (a fleet created between the two scrapes).
func (after promScrape) delta(before promScrape, key string) float64 {
	return after[key] - before[key]
}

// histDelta returns how many observations a histogram family gained
// between two scrapes and their summed seconds, read off its _count and
// _sum series.
func (after promScrape) histDelta(before promScrape, family string, labels ...string) (count, sum float64) {
	return after.delta(before, seriesKey(family+"_count", labels...)),
		after.delta(before, seriesKey(family+"_sum", labels...))
}
