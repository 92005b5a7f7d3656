package topology

// FullBisection reports whether the Clos fabric has full bisection
// bandwidth (§1): for every ToR switch, the fabric-facing capacity
// (number of middle switches, at unit capacity) is at least the
// server-facing capacity (servers per ToR). For a square C_n this always
// holds with equality; oversubscribed rectangular fabrics fail it.
func FullBisection(c *Clos) bool {
	return c.Size() >= c.ServersPerToR()
}
