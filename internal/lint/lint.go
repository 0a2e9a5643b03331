// Package lint is pnm's project-specific static analyzer suite. It
// enforces, mechanically, the determinism and ownership invariants that
// internal/parallel's byte-identical-results contract rests on — rules
// that otherwise live only in package comments and one -race test:
//
//   - wallclock:  no time.Now / time.Since in the deterministic packages
//     (the experiment pipeline must derive everything from seeds);
//   - globalrand: no top-level math/rand functions anywhere — randomness
//     must flow from rand.New(rand.NewSource(seed)) with an index-derived
//     seed, never from the shared global source;
//   - maporder:   no map-iteration order leaking into emitted output
//     (returned row slices, CSV/table writes, fmt.Fprint*);
//   - ownership:  types marked `// pnmlint:single-goroutine` must not
//     have methods invoked from go statements or goroutine-launched
//     function literals;
//   - guardedby:  struct fields marked `// pnmlint:guarded-by <mu>` are
//     only read or written while that sibling mutex is held on every
//     path — the locking complement to ownership, for the components
//     (transport.Server) whose state is shared between goroutines;
//   - golife:     every go statement in the deterministic and transport
//     packages has a tracked lifecycle (WaitGroup Done, or a done
//     channel send/close), so no naked goroutine outlives Close();
//   - noalloc:    functions marked `// pnmlint:noalloc` contain no
//     compiler escape-analysis findings, checked against real
//     `go build -gcflags=-m` output loaded by LoadEscapes — the
//     zero-alloc MAC and verify kernels as a static gate instead of a
//     benchmark-only fact.
//
// Intentional exceptions are annotated in the source with
//
//	//pnmlint:allow <analyzer> <reason>
//
// on the offending line or the line directly above it.
//
// The suite is built only on the stdlib go/parser, go/ast, go/types and
// go/build packages (no golang.org/x/tools), honoring the repository's
// zero-dependency constraint: the loader resolves module-internal imports
// from the repo tree and everything else from GOROOT source.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding as file:line:col: analyzer: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one lint rule run over a loaded program.
type Analyzer interface {
	// Name is the identifier used in diagnostics and allow annotations.
	Name() string
	// Doc is a one-line description for -help output.
	Doc() string
	// Run inspects the program and reports findings. Implementations do
	// not apply allow annotations themselves; Run in this package filters
	// suppressed findings afterwards.
	Run(prog *Program) []Diagnostic
}

// Package is one type-checked package under analysis.
type Package struct {
	// Path is the import path (module path + relative directory).
	Path string
	// Dir is the absolute directory the files came from.
	Dir string
	// Files are the parsed non-test source files, with comments.
	Files []*ast.File
	// Types and Info are the go/types results for Files.
	Types *types.Package
	Info  *types.Info

	// allow maps filename -> line -> analyzer names suppressed there.
	allow map[string]map[int][]string
}

// Program is the full set of packages a lint invocation analyzes.
type Program struct {
	// Fset positions every file in every package.
	Fset *token.FileSet
	// Pkgs are the analysis targets, sorted by import path. Dependencies
	// that were only loaded for type-checking are not included.
	Pkgs []*Package
	// ModulePath is the module's import-path prefix (from go.mod).
	ModulePath string

	// owner maps each analyzed filename to its package.
	owner map[string]*Package
}

// indexOwners builds the filename -> package index used to apply allow
// annotations to diagnostics.
func (prog *Program) indexOwners() {
	prog.owner = make(map[string]*Package)
	for _, p := range prog.Pkgs {
		for _, f := range p.Files {
			prog.owner[prog.Fset.Position(f.Pos()).Filename] = p
		}
	}
}

// allowRx matches one allow annotation inside a comment line. Both
// "//pnmlint:allow name reason" and "// pnmlint:allow name reason" forms
// are accepted.
var allowRx = regexp.MustCompile(`^//\s*pnmlint:allow\s+([a-z]+)\b`)

// recordAllows indexes a file's //pnmlint:allow annotations by line.
func (p *Package) recordAllows(fset *token.FileSet, f *ast.File) {
	if p.allow == nil {
		p.allow = make(map[string]map[int][]string)
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := allowRx.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			lines := p.allow[pos.Filename]
			if lines == nil {
				lines = make(map[int][]string)
				p.allow[pos.Filename] = lines
			}
			lines[pos.Line] = append(lines[pos.Line], m[1])
		}
	}
}

// allowed reports whether a diagnostic from the named analyzer at pos is
// suppressed by an annotation on the same line or the line directly above.
func (p *Package) allowed(name string, pos token.Position) bool {
	lines := p.allow[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, n := range lines[line] {
			if n == name {
				return true
			}
		}
	}
	return false
}

// Run executes the analyzers over the program, filters findings that an
// allow annotation suppresses, and returns the rest sorted by position.
func Run(prog *Program, analyzers ...Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		for _, d := range a.Run(prog) {
			if p := prog.owner[d.Pos.Filename]; p != nil && p.allowed(a.Name(), d.Pos) {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// DeterministicPackages lists the packages (relative to the module path)
// whose output must be a pure function of configuration and seeds. The
// wallclock analyzer rejects real-time reads inside them.
var DeterministicPackages = []string{
	"internal/experiment",
	"internal/fault",
	"internal/sim",
	"internal/sink",
	"internal/parallel",
	"internal/netsim",
	"internal/obs",
	"internal/queue",
	"internal/loadgen",
	"internal/transport",
	"internal/topology",
}

// DefaultAnalyzers returns the standard pnm analyzer suite for a module.
// The NoAlloc analyzer starts without escape data — callers that ran
// LoadEscapes hand it over via AttachEscapes.
func DefaultAnalyzers(modulePath string) []Analyzer {
	paths := make([]string, 0, len(DeterministicPackages)+1)
	for _, rel := range DeterministicPackages {
		paths = append(paths, modulePath+"/"+rel)
	}
	// The wallclock and golife fixtures opt themselves in so the CLI
	// demonstrates the path-scoped rules when pointed at testdata.
	wcPaths := append(append([]string(nil), paths...), modulePath+"/internal/lint/testdata/wallclock")
	glPaths := append(append([]string(nil), paths...), modulePath+"/internal/lint/testdata/golife")
	return []Analyzer{
		&Wallclock{Paths: wcPaths},
		&GlobalRand{},
		&MapOrder{},
		&Ownership{},
		&GuardedBy{},
		&GoLife{Paths: glPaths},
		&NoAlloc{},
	}
}

// funcFor returns the innermost function declaration or literal enclosing
// pos in file, or nil. Used by analyzers that need return-value context.
func funcFor(file *ast.File, pos token.Pos) ast.Node {
	var best ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if n.Pos() <= pos && pos < n.End() {
				best = n // keep innermost: later matches are nested deeper
			}
		}
		return true
	})
	return best
}
