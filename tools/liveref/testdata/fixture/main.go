// Command fixture is the module the live-reference check is tested on.
package main

import (
	"flag"

	"fixture/internal/lib"
)

// Report re-exports lib.Report, whose fields users of the module read.
type Report = lib.Report

func main() {
	var names lib.List
	flag.Var(&names, "name", "a name; repeatable")
	flag.Parse()
	_ = lib.Run()
}
