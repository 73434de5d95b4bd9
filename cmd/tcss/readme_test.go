package main

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

// readmeCommands returns the argument vector of every `go run ./cmd/tcss …`
// line of a README, with `\` continuations joined, `# …` comments and a
// trailing `&` cut, and the rest split on spaces outside single quotes.
func readmeCommands(readme string) [][]string {
	const prefix = "go run ./cmd/tcss "
	var cmds [][]string
	lines := strings.Split(readme, "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(line, "\\") + " " + strings.TrimSpace(lines[i])
		}
		var args []string
		var cur strings.Builder
		quoted := false
		flush := func() {
			if cur.Len() > 0 {
				args = append(args, cur.String())
				cur.Reset()
			}
		}
	scan:
		for _, r := range strings.TrimPrefix(line, prefix) {
			switch {
			case r == '\'':
				quoted = !quoted
			case quoted:
				cur.WriteRune(r)
			case r == '#' && cur.Len() == 0:
				break scan
			case r == ' ':
				flush()
			default:
				cur.WriteRune(r)
			}
		}
		flush()
		if n := len(args); n > 0 && args[n-1] == "&" {
			args = args[:n-1]
		}
		cmds = append(cmds, args)
	}
	return cmds
}

// TestREADMECommandLinesParse: every `tcss` and `tcss serve` command line the
// README prints is accepted by the FlagSet the binary builds and by validate,
// so a deleted or renamed flag cannot stay behind in the documentation.
// `tcss replay` builds its FlagSet inside replayMain; its lines are skipped.
func TestREADMECommandLinesParse(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var train, serve int
	for _, args := range readmeCommands(string(readme)) {
		what := "README: go run ./cmd/tcss " + strings.Join(args, " ")
		var fs *flag.FlagSet
		var validate func() error
		switch {
		case len(args) > 0 && args[0] == "replay":
			continue
		case len(args) > 0 && args[0] == "serve":
			var c serveConfig
			fs, validate, args = c.flags(), c.validate, args[1:]
			serve++
		default:
			var c trainConfig
			fs, validate = c.flags(), c.validate
			train++
		}
		// The binary's FlagSets exit the process on a bad flag.
		fs.Init(fs.Name(), flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if err := fs.Parse(args); err != nil {
			t.Errorf("%s: %v", what, err)
		} else if fs.NArg() > 0 {
			t.Errorf("%s: stray arguments %q", what, fs.Args())
		} else if err := validate(); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}
	// The parser found the lines it is there for.
	if train < 5 || serve < 5 {
		t.Fatalf("found %d tcss and %d tcss serve command lines in README.md, want at least 5 of each", train, serve)
	}
}
