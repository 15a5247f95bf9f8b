package main

import (
	"fmt"
	"sort"
	"strings"

	"spider"
	"spider/internal/ind"
)

// verdicts is a discovery call's answer in comparable form: the
// satisfied INDs rendered as text, sorted.
type verdicts []string

func unaryVerdicts(inds []spider.IND) verdicts {
	out := make(verdicts, 0, len(inds))
	for _, d := range inds {
		out = append(out, d.String())
	}
	sort.Strings(out)
	return out
}

func internalVerdicts(inds []ind.IND) verdicts {
	out := make(verdicts, 0, len(inds))
	for _, d := range inds {
		out = append(out, d.Dep.String()+" ⊆ "+d.Ref.String())
	}
	sort.Strings(out)
	return out
}

func naryVerdicts(inds []spider.NaryIND) verdicts {
	out := make(verdicts, 0, len(inds))
	for _, d := range inds {
		out = append(out, d.String())
	}
	sort.Strings(out)
	return out
}

// diff describes how got departs from the reference verdicts v, or
// returns "" when they are equal.
func (v verdicts) diff(got verdicts) string {
	want := make(map[string]bool, len(v))
	for _, s := range v {
		want[s] = true
	}
	have := make(map[string]bool, len(got))
	var extra, missing []string
	for _, s := range got {
		if have[s] {
			extra = append(extra, s+" (twice)")
		}
		have[s] = true
		if !want[s] {
			extra = append(extra, s)
		}
	}
	for _, s := range v {
		if !have[s] {
			missing = append(missing, s)
		}
	}
	if len(extra) == 0 && len(missing) == 0 {
		return ""
	}
	return fmt.Sprintf("%d wrong (%s), %d missing (%s)",
		len(extra), firstFew(extra), len(missing), firstFew(missing))
}

func firstFew(xs []string) string {
	if len(xs) > 3 {
		return strings.Join(xs[:3], "; ") + "; …"
	}
	return strings.Join(xs, "; ")
}
