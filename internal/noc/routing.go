package noc

// routeDOR computes the output port for a packet at node cur heading to dst
// using dimension-ordered routing. When yFirst is false the X offset is
// consumed first (XY routing); when true the Y offset is consumed first.
// A packet at its destination routes to the local (ejection) port.
func routeDOR(cfg *Config, cur, dst NodeID, yFirst bool) Port {
	cx, cy := cfg.Coord(cur)
	dx, dy := cfg.Coord(dst)
	if yFirst {
		switch {
		case dy > cy:
			return PortSouth
		case dy < cy:
			return PortNorth
		case dx > cx:
			return PortEast
		case dx < cx:
			return PortWest
		}
		return PortLocal
	}
	switch {
	case dx > cx:
		return PortEast
	case dx < cx:
		return PortWest
	case dy > cy:
		return PortSouth
	case dy < cy:
		return PortNorth
	}
	return PortLocal
}

// RoutePort returns the output port a packet takes at node cur. The
// packet's DimOrder field selects between XY and YX when the configured
// algorithm is O1TURN; for plain XY or YX the configuration wins.
func RoutePort(cfg *Config, cur NodeID, p *Packet) Port {
	switch cfg.Routing {
	case RoutingYX:
		return routeDOR(cfg, cur, p.Dst, true)
	case RoutingO1TURN:
		return routeDOR(cfg, cur, p.Dst, p.DimOrder == 1)
	default:
		return routeDOR(cfg, cur, p.Dst, false)
	}
}
