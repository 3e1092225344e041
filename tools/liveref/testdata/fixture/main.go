// Command fixture is the module the live-reference check is tested on.
package main

import (
	"flag"

	"fixture/internal/lib"
)

func main() {
	var names lib.List
	flag.Var(&names, "name", "a name; repeatable")
	flag.Parse()
	lib.Run()
}
