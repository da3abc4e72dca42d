// Closed-loop client drivers. The paper's workload intensity is controlled
// purely by the number of interactive clients per class; each client
// submits queries one after another with zero think time.
package workload

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/rng"
)

// Client is one interactive connection submitting queries from a template
// set in a closed loop.
type Client struct {
	ID    engine.ClientID
	Class *Class

	pool     *Pool
	set      *Set
	src      *rng.Source
	active   bool
	inFlight bool

	// group/gidx tie a lazily materialized client back to its streaming
	// group so it can park (shrink to 12 bytes) when deactivated. Both are
	// zero for eager clients.
	group *lazyGroup
	gidx  int

	// Submitted counts queries this client has issued.
	Submitted int
}

// Active reports whether the client is currently driving load.
func (c *Client) Active() bool { return c.active }

// submitNext issues the client's next query (zero think time).
//
//qlint:hotpath
func (c *Client) submitNext() {
	inst := c.set.Generate(c.src)
	// Queries come from the rig's one query pool: whichever engine ends
	// a query recycles it, so a million-query run reuses a handful of
	// objects instead of allocating one per statement. A fleet run swaps
	// in a router here, drawing from the same kind of pool.
	sub := c.pool.route
	q := sub.AcquireQuery()
	q.Client = c.ID
	q.Class = c.Class.ID
	q.Template = inst.Template
	q.Cost = inst.Timerons
	q.Demand = inst.Demand
	c.inFlight = true
	c.Submitted++
	sub.Submit(q)
}

// Submitter is where clients send their queries: a single engine in the
// classic rig, or a fleet router that picks a backend per query. Both
// hand out queries from a freelist via AcquireQuery.
type Submitter interface {
	AcquireQuery() *engine.Query
	Submit(*engine.Query)
}

// Pool owns all clients of an experiment and routes engine completions
// back to them. Period changes activate or park clients per class.
type Pool struct {
	route   Submitter
	clients map[engine.ClientID]*Client // eager clients + live streaming clients
	//lint:ignore ckptcover derived per-class index; rebuilt from the clients table by construction on restore
	byClass map[engine.ClassID][]*Client
	groups  map[engine.ClassID]*lazyGroup
	nextID  engine.ClientID
}

// lazyGroup is one class's streaming client population. Clients exist as
// full objects only while active or in flight; everything else is a
// 12-byte (rng cursor, submit count) record. The parent stream is
// consumed identically to AddClients — one Uint64 per client, in order —
// so a streaming run is byte-identical to an eager one.
type lazyGroup struct {
	class *Class
	set   *Set
	start engine.ClientID // id of offset 0

	// state[i] is client i's rng cursor: seeded at construction exactly
	// like AddClients' src.Split() child, written back on park.
	state     []uint64
	submitted []int32
	live      map[int]*Client // materialized clients by offset
	lo, hi    int             // current active window [lo, hi)
}

// NewPool returns a pool bound to eng, registering its completion hook.
func NewPool(eng *engine.Engine) *Pool {
	p := &Pool{
		route:   eng,
		clients: make(map[engine.ClientID]*Client),
		byClass: make(map[engine.ClassID][]*Client),
		groups:  make(map[engine.ClassID]*lazyGroup),
	}
	eng.OnDone(p.onDone)
	return p
}

// NewRoutedPool returns a pool that submits through route instead of a
// single engine. Completions still arrive engine-by-engine: the caller
// passes every engine queries can land on so the pool's closed loop
// keeps turning wherever the router sends them.
func NewRoutedPool(route Submitter, engines []*engine.Engine) *Pool {
	if route == nil || len(engines) == 0 {
		panic("workload: NewRoutedPool needs a router and at least one engine")
	}
	p := &Pool{
		route:   route,
		clients: make(map[engine.ClientID]*Client),
		byClass: make(map[engine.ClassID][]*Client),
		groups:  make(map[engine.ClassID]*lazyGroup),
	}
	for _, eng := range engines {
		eng.OnDone(p.onDone)
	}
	return p
}

// AddClients creates n parked clients for class drawing from set. Each
// client gets an independent random stream split from src, so client
// counts in one class never perturb another class's draws.
func (p *Pool) AddClients(class *Class, set *Set, n int, src *rng.Source) {
	if class == nil || set == nil {
		panic("workload: AddClients with nil class or set")
	}
	if _, ok := p.groups[class.ID]; ok {
		panic(fmt.Sprintf("workload: class %d mixes streaming and eager clients", class.ID))
	}
	for i := 0; i < n; i++ {
		p.nextID++
		c := &Client{ID: p.nextID, Class: class, pool: p, set: set, src: src.Split()}
		p.clients[c.ID] = c
		p.byClass[class.ID] = append(p.byClass[class.ID], c)
	}
}

// AddClientsStreaming creates n streaming clients for class drawing from
// set. The parent stream src is consumed exactly as AddClients would
// (one draw per client, in order), but no Client objects are built until
// a client is first activated; the pool's behaviour is byte-identical to
// the eager path. A class is either streaming or eager, never both, and
// a streaming class takes exactly one AddClientsStreaming call.
func (p *Pool) AddClientsStreaming(class *Class, set *Set, n int, src *rng.Source) {
	if class == nil || set == nil {
		panic("workload: AddClientsStreaming with nil class or set")
	}
	if n == 0 {
		return
	}
	if len(p.byClass[class.ID]) > 0 {
		panic(fmt.Sprintf("workload: class %d mixes streaming and eager clients", class.ID))
	}
	if _, ok := p.groups[class.ID]; ok {
		panic(fmt.Sprintf("workload: streaming class %d already has clients", class.ID))
	}
	g := &lazyGroup{
		class:     class,
		set:       set,
		start:     p.nextID + 1,
		state:     make([]uint64, n),
		submitted: make([]int32, n),
		live:      make(map[int]*Client),
	}
	for i := 0; i < n; i++ {
		// Same cursor a Split() child would start from.
		g.state[i] = rng.New(src.Uint64()).State()
	}
	p.nextID += engine.ClientID(n)
	p.groups[class.ID] = g
}

// materialize returns the live client at offset i, building it from the
// parked record if needed.
func (g *lazyGroup) materialize(p *Pool, i int) *Client {
	if c, ok := g.live[i]; ok {
		return c
	}
	src := rng.New(0)
	src.SetState(g.state[i])
	c := &Client{
		ID:        g.start + engine.ClientID(i),
		Class:     g.class,
		pool:      p,
		set:       g.set,
		src:       src,
		group:     g,
		gidx:      i,
		Submitted: int(g.submitted[i]),
	}
	g.live[i] = c
	p.clients[c.ID] = c
	return c
}

// park shrinks an inactive, idle client back to its 12-byte record.
func (g *lazyGroup) park(p *Pool, c *Client) {
	g.state[c.gidx] = c.src.State()
	g.submitted[c.gidx] = int32(c.Submitted)
	delete(g.live, c.gidx)
	delete(p.clients, c.ID)
}

// Client returns the client with the given ID, or nil. For streaming
// classes only live (active or in-flight) clients resolve.
func (p *Pool) Client(id engine.ClientID) *Client { return p.clients[id] }

// Clients returns all clients of a class (active and parked). Streaming
// classes have no materialized population to return; asking for one is a
// programming error.
func (p *Pool) Clients(class engine.ClassID) []*Client {
	if _, ok := p.groups[class]; ok {
		panic(fmt.Sprintf("workload: Clients(%d) on a streaming class", class))
	}
	return p.byClass[class]
}

// ActiveClients returns the IDs of currently active clients of a class —
// the set the snapshot monitor samples.
func (p *Pool) ActiveClients(class engine.ClassID) []engine.ClientID {
	if g, ok := p.groups[class]; ok {
		ids := make([]engine.ClientID, 0, g.hi-g.lo)
		for i := g.lo; i < g.hi; i++ {
			ids = append(ids, g.start+engine.ClientID(i))
		}
		return ids
	}
	var ids []engine.ClientID
	for _, c := range p.byClass[class] {
		if c.active {
			ids = append(ids, c.ID)
		}
	}
	return ids
}

// ActiveCount returns how many clients of the class are active.
func (p *Pool) ActiveCount(class engine.ClassID) int {
	if g, ok := p.groups[class]; ok {
		return g.hi - g.lo
	}
	n := 0
	for _, c := range p.byClass[class] {
		if c.active {
			n++
		}
	}
	return n
}

// SetActive adjusts the number of active clients in a class. Newly
// activated idle clients submit immediately; deactivated clients finish
// their in-flight query and then park.
func (p *Pool) SetActive(class engine.ClassID, n int) {
	if g, ok := p.groups[class]; ok {
		if n < 0 || n > len(g.state) {
			panic(fmt.Sprintf("workload: SetActive(%d, %d) with only %d clients", class, n, len(g.state)))
		}
		p.setWindow(g, 0, n)
		return
	}
	cs := p.byClass[class]
	if n < 0 || n > len(cs) {
		panic(fmt.Sprintf("workload: SetActive(%d, %d) with only %d clients", class, n, len(cs)))
	}
	for i, c := range cs {
		want := i < n
		if want == c.active {
			continue
		}
		c.active = want
		if want && !c.inFlight {
			c.submitNext()
		}
	}
}

// SetActiveWindow activates exactly the clients with class-offsets in
// [lo, hi), deactivating everything outside. SetActive(class, n) is the
// window [0, n); a non-zero lo lets long-running workloads rotate client
// cohorts so the set of distinct clients is unbounded while the live set
// stays small.
func (p *Pool) SetActiveWindow(class engine.ClassID, lo, hi int) {
	if g, ok := p.groups[class]; ok {
		if lo < 0 || hi < lo || hi > len(g.state) {
			panic(fmt.Sprintf("workload: SetActiveWindow(%d, %d, %d) with only %d clients",
				class, lo, hi, len(g.state)))
		}
		p.setWindow(g, lo, hi)
		return
	}
	cs := p.byClass[class]
	if lo < 0 || hi < lo || hi > len(cs) {
		panic(fmt.Sprintf("workload: SetActiveWindow(%d, %d, %d) with only %d clients",
			class, lo, hi, len(cs)))
	}
	for i, c := range cs {
		want := i >= lo && i < hi
		if want == c.active {
			continue
		}
		c.active = want
		if want && !c.inFlight {
			c.submitNext()
		}
	}
}

// setWindow moves a streaming group's active window. Deactivations are
// processed first (they emit nothing, so their order cannot influence
// the simulation); activations then run in ascending offset order —
// exactly the submit order the eager path produces.
func (p *Pool) setWindow(g *lazyGroup, lo, hi int) {
	for i, c := range g.live {
		if (i < lo || i >= hi) && c.active {
			c.active = false
			if !c.inFlight {
				g.park(p, c)
			}
		}
	}
	for i := lo; i < hi; i++ {
		c := g.materialize(p, i)
		if !c.active {
			c.active = true
			if !c.inFlight {
				c.submitNext()
			}
		}
	}
	g.lo, g.hi = lo, hi
}

// onDone is the pool's engine completion listener.
//
//qlint:hotpath
func (p *Pool) onDone(q *engine.Query) {
	c, ok := p.clients[q.Client]
	if !ok {
		return // query from a non-pool submitter (tests, examples)
	}
	c.inFlight = false
	if c.active {
		c.submitNext() // zero think time
		return
	}
	if c.group != nil {
		c.group.park(p, c)
	}
}
