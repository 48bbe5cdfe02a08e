package radio

// candidatesOf returns the length of node id's candidate list, the
// candidates its queries read until the next rebuild; 0 if it has not
// asked since the last one.
func (ch *Channel) candidatesOf(id NodeID) int {
	g := ch.grid
	if l := g.lists[id]; l.gen == g.gen {
		return int(l.n)
	}
	return 0
}
