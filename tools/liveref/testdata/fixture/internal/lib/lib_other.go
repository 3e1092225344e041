//go:build !unix

package lib

func platform(c conn, s *Stats) {
	c.close()
	_ = s.other
}
