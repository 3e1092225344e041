//go:build !unix

package lib

func platform(c conn) { c.close() }
