package analysis

import (
	"go/token"
	"sort"
	"strings"
)

// allowPrefix introduces a suppression comment:
//
//	//easyio:allow analyzer1 analyzer2 (rationale)
//
// The comment suppresses the named analyzers on its own line and on the
// following line, so it can sit at the end of the offending statement or
// on the line directly above it. Everything from the first token that
// starts with '(' or '-' is treated as rationale and ignored. A bare
// "//easyio:allow all" suppresses every analyzer (use sparingly).
//
// Suppressions cannot rot: the staleallow analyzer (staleallow.go) fails
// the build on any allow comment that names an unknown analyzer or that
// suppressed nothing in a full run.
const allowPrefix = "easyio:allow"

// allowedNames parses one comment's text (without the // or /* markers)
// and returns the analyzer names it suppresses, or nil.
func allowedNames(text string) []string {
	text = strings.TrimSpace(text)
	rest, ok := strings.CutPrefix(text, allowPrefix)
	if !ok {
		return nil
	}
	var names []string
	for _, tok := range strings.Fields(rest) {
		if strings.HasPrefix(tok, "(") || strings.HasPrefix(tok, "-") {
			break
		}
		names = append(names, tok)
	}
	return names
}

// allowComment is one //easyio:allow comment and its usage record.
type allowComment struct {
	pos   token.Position
	names []string
	// used records, per analyzer name, whether this comment suppressed at
	// least one of that analyzer's diagnostics.
	used map[string]bool
}

func (c *allowComment) covers(analyzer string) bool {
	for _, n := range c.names {
		if n == analyzer || n == "all" {
			return true
		}
	}
	return false
}

// suppressionIndex maps "file:line" to the allow comments covering that
// line, and retains every comment for stale-allow auditing.
type suppressionIndex struct {
	byLine   map[string][]*allowComment
	comments []*allowComment
}

func (idx *suppressionIndex) add(file string, line int, c *allowComment) {
	key := suppressKey(file, line)
	idx.byLine[key] = append(idx.byLine[key], c)
}

// allows reports whether any comment covers the diagnostic, marking every
// covering comment as used.
func (idx *suppressionIndex) allows(file string, line int, analyzer string) bool {
	hit := false
	for _, c := range idx.byLine[suppressKey(file, line)] {
		if c.covers(analyzer) {
			c.used[analyzer] = true
			hit = true
		}
	}
	return hit
}

func suppressKey(file string, line int) string {
	var b strings.Builder
	b.WriteString(file)
	b.WriteByte(':')
	// Avoid fmt in the hot path; lines fit easily in an int itoa.
	b.WriteString(itoa(line))
	return b.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// buildSuppressions scans every comment in pkgs and records which lines
// each //easyio:allow comment covers (its own line and the next).
func buildSuppressions(pkgs []*Package) *suppressionIndex {
	idx := &suppressionIndex{byLine: map[string][]*allowComment{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimPrefix(text, "/*")
					text = strings.TrimSuffix(text, "*/")
					names := allowedNames(text)
					if names == nil {
						continue
					}
					ac := &allowComment{
						pos:   pkg.Fset.Position(c.Pos()),
						names: names,
						used:  map[string]bool{},
					}
					idx.comments = append(idx.comments, ac)
					idx.add(ac.pos.Filename, ac.pos.Line, ac)
					idx.add(ac.pos.Filename, ac.pos.Line+1, ac)
				}
			}
		}
	}
	return idx
}

// filter drops diagnostics covered by an //easyio:allow comment,
// recording which comments earned their keep.
func (idx *suppressionIndex) filter(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		if !idx.allows(d.Pos.Filename, d.Pos.Line, d.Analyzer) {
			out = append(out, d)
		}
	}
	return out
}

// staleFindings audits the allow comments after filtering: a name that is
// not a registered analyzer is a typo that would silently suppress
// nothing; a name whose analyzer ran but suppressed nothing is a stale
// escape that must be deleted. Names of analyzers not in this run are
// skipped (a partial -only run cannot judge them), and "all" is judged
// only when the whole registry ran.
func (idx *suppressionIndex) staleFindings(ran []*Analyzer) []Diagnostic {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	ranSet := map[string]bool{}
	for _, a := range ran {
		ranSet[a.Name] = true
	}
	fullRun := true
	for name := range known {
		if name != StaleAllow.Name && !ranSet[name] {
			fullRun = false
		}
	}
	var out []Diagnostic
	for _, c := range idx.comments {
		anyUsed := len(c.used) > 0
		for _, name := range c.names {
			var msg string
			switch {
			case name == "all":
				if fullRun && !anyUsed {
					msg = "stale //easyio:allow all: nothing to suppress; delete the comment"
				}
			case !known[name]:
				msg = "unknown analyzer " + quote(name) + " in //easyio:allow (typos suppress nothing)"
			case name == StaleAllow.Name:
				msg = "//easyio:allow " + StaleAllow.Name + " is not suppressible: stale allows must be deleted, not allowed"
			case ranSet[name] && !c.used[name] && !c.used["all"]:
				msg = "stale //easyio:allow " + name + ": the analyzer found nothing here; delete the comment"
			}
			if msg != "" {
				out = append(out, Diagnostic{Pos: c.pos, Analyzer: StaleAllow.Name, Message: msg})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out
}

func quote(s string) string {
	return "\"" + s + "\""
}
