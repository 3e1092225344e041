//go:build unix

package lib

func platform(conn, *Stats) {}
