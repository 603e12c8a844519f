package analysis

import "bytes"

// blankFuncBodies overwrites the inside of every top-level function body
// in the Go source src with spaces, in place, and keeps every newline, so
// each offset, line and column in src stays where it was. The standard
// library is loaded by declarations only (loader): go/types skips
// function bodies when checking it, and parsing bodies it then throws
// away is most of the cost of a load. Function literals, composite
// literals and a body holding a line directive (//line, /*line: it would
// move the positions after it) are left as they are.
//
// The pass is a byte-level lexer: braces inside comments, interpreted and
// raw strings, and runes do not count. A func keyword opens a declaration
// only at bracket depth 0 as the first token of a declaration, that is
// after a ';' or after a newline that ended the previous token (Go's
// semicolon rule), so var f = func() {...} is not one. In a signature a
// brace after struct or interface, or inside () or [], belongs to a type;
// the first other brace opens the body, and a newline that ends the
// signature ends a declaration without one (an assembly stub).
func blankFuncBodies(src []byte) {
	lx := blankLexer{src: src}
	sig := false // between a declaration's func keyword and its body
	typ := false // the previous token is struct or interface
	decl := true // the next token starts a declaration
	for {
		// Every bracket is skipped through its match (lx.group), so each
		// token seen here is at depth 0.
		k, start, nl := lx.next()
		if k == 0 {
			return
		}
		if nl {
			decl, sig = true, false
		}
		switch k {
		case ';':
			sig = false
		case '(', '[':
			lx.group(start)
		case '{':
			line := lx.group(start)
			if sig && !typ {
				if !line {
					blank(src[start+1 : lx.pos-1])
				}
				sig = false
			}
		case 'a':
			if decl && string(lx.word) == "func" {
				sig = true
			}
		}
		typ = k == 'a' && (string(lx.word) == "struct" || string(lx.word) == "interface")
		decl = k == ';'
	}
}

// blankLexer splits Go source into just enough tokens for
// blankFuncBodies: identifiers and keywords ('a'), literals ('0'), and
// every other byte outside white space and comments as itself. It only
// sees tokens outside brackets, where ++ and -- cannot occur.
type blankLexer struct {
	src  []byte
	pos  int
	last byte // kind of the previous token
	word []byte
}

// next returns the kind and start offset of the next token, or kind 0 at
// the end of src. nl reports a newline between the previous token and
// this one that ended the previous token's statement.
func (lx *blankLexer) next() (kind byte, start int, nl bool) {
	src := lx.src
	newline := false
	i := lx.pos
	for ; i < len(src); i++ {
		c := src[i]
		if c == '\n' {
			newline = true
		} else if c == '/' && i+1 < len(src) && (src[i+1] == '/' || src[i+1] == '*') {
			end, _, multi := skipComment(src, i)
			newline = newline || multi
			i = end - 1
		} else if c != ' ' && c != '\t' && c != '\r' {
			break
		}
	}
	nl = newline && lx.endsStmt()
	if i >= len(src) {
		lx.pos = i
		return 0, i, nl
	}
	start = i
	c := src[i]
	switch {
	case isWordByte(c) && !('0' <= c && c <= '9'):
		for i < len(src) && isWordByte(src[i]) {
			i++
		}
		kind = 'a'
	case '0' <= c && c <= '9' || c == '.' && i+1 < len(src) && '0' <= src[i+1] && src[i+1] <= '9':
		// Exponent signs are lexed as operators; nothing here depends
		// on where a number ends.
		for i < len(src) && (isWordByte(src[i]) || src[i] == '.') {
			i++
		}
		kind = '0'
	case c == '"' || c == '\'' || c == '`':
		i = skipQuoted(src, i)
		kind = '0'
	default:
		i++
		kind = c
	}
	lx.pos = i
	lx.last = kind
	lx.word = src[start:i]
	return kind, start, nl
}

// endsStmt reports whether Go inserts a semicolon after the previous
// token when a newline follows it.
func (lx *blankLexer) endsStmt() bool {
	switch lx.last {
	case '0', ')', ']', '}':
		return true
	case 'a':
		switch string(lx.word) {
		case "case", "chan", "const", "default", "defer", "else", "for", "func", "go", "goto",
			"if", "import", "interface", "map", "package", "range", "select", "struct", "switch",
			"type", "var":
			return false
		}
		return true
	}
	return false
}

// group skips the bracketed group whose opening bracket is at src[open]
// through its matching closing bracket, and reports whether a line
// directive lies inside. It reads bytes rather than tokens: only
// brackets, comments and quoted literals matter inside a group.
func (lx *blankLexer) group(open int) (line bool) {
	src := lx.src
	depth := 0
	for i := open; i < len(src); {
		for i < len(src) && !groupStop[src[i]] {
			i++
		}
		if i == len(src) {
			break
		}
		switch c := src[i]; c {
		case '(', '[', '{':
			depth++
		case ')', ']', '}':
			if depth--; depth == 0 {
				lx.pos, lx.last = i+1, c
				return line
			}
		case '/':
			if i+1 < len(src) && (src[i+1] == '/' || src[i+1] == '*') {
				end, isLine, _ := skipComment(src, i)
				line = line || isLine
				i = end
				continue
			}
		case '"', '\'', '`':
			i = skipQuoted(src, i)
			continue
		}
		i++
	}
	lx.pos = len(src)
	return line
}

// groupStop marks the bytes group must look at.
var groupStop = [256]bool{
	'(': true, ')': true, '[': true, ']': true, '{': true, '}': true,
	'/': true, '"': true, '\'': true, '`': true,
}

// blank overwrites every byte of b but newlines with a space.
func blank(b []byte) {
	for i, c := range b {
		if c != '\n' {
			b[i] = ' '
		}
	}
}

// skipComment returns the end of the // or /* comment at src[i], whether
// it is a line directive, and whether it holds a newline. A // comment
// ends before its newline.
func skipComment(src []byte, i int) (end int, line, newline bool) {
	text := src[i+2:]
	if src[i+1] == '/' {
		n := bytes.IndexByte(text, '\n')
		if n < 0 {
			n = len(text)
		}
		return i + 2 + n, bytes.HasPrefix(text, []byte("line ")), false
	}
	n := bytes.Index(text, []byte("*/"))
	if n < 0 {
		return len(src), false, true // unterminated; the parser reports it
	}
	return i + 4 + n, bytes.HasPrefix(text, []byte("line ")), bytes.IndexByte(text[:n], '\n') >= 0
}

// skipQuoted returns the end of the string, raw string or rune literal at
// src[i].
func skipQuoted(src []byte, i int) int {
	q := src[i]
	for i++; i < len(src); i++ {
		switch c := src[i]; {
		case c == q:
			return i + 1
		case q == '`':
		case c == '\\':
			i++
		case c == '\n':
			return i // unterminated; the parser reports it
		}
	}
	return len(src)
}

// isWordByte reports whether c can be part of an identifier, a keyword
// or a number; every byte of a non-ASCII character counts as a letter.
func isWordByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c >= 0x80
}
