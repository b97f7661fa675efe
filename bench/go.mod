// The benchmark is a module of its own so that it brings its build file
// with it and nothing outside bench/ has to change. The module path keeps
// the repro/ prefix, which is what lets it import repro/internal/...
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
