package data

import (
	"sync"

	"crossbow/internal/tensor"
)

// Slot is one entry of the pipeline's circular input-batch buffer: a staged
// batch tensor plus its labels (paper §4.5: a page-aligned, page-locked
// circular buffer written by data pre-processors and read by the GPU; here
// the buffer is plain memory shared with the simulated devices).
type Slot struct {
	X      *tensor.Tensor
	Labels []int
	// Seq is the batch's position in the batcher's deterministic draw
	// sequence (0-based). Consumers that need the oracle batch order — the
	// runtime's lockstep mode — reorder staged slots by Seq; barrier-free
	// consumers use it to log which learner a batch was bound to.
	Seq int
	idx int
}

// Pipeline is the data pre-processor stage of §4.5: a pool of worker
// goroutines gathers shuffled samples into the slots of a circular buffer
// (double buffering by default: capacity ≥ 2 batches per consumer), applying
// optional augmentation. Consumers acquire filled slots and release them
// back once the learning task has consumed the batch.
type Pipeline struct {
	ds      *Dataset
	batch   int
	augment bool

	slots []*Slot
	free  chan int
	full  chan int
	work  chan workItem

	// claimMu pairs each worker's (work item, free slot) claim atomically:
	// the worker staging batch seq n holds a slot before any worker staging
	// seq > n can claim one, so the lowest outstanding sequence is always
	// being filled and consumers draining slots in Seq order cannot starve.
	claimMu  sync.Mutex
	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// PipelineConfig configures a pre-processor pipeline.
type PipelineConfig struct {
	Batch   int
	Slots   int // circular-buffer capacity in batches; ≥ 2 recommended (double buffering)
	Workers int // pre-processor threads
	Augment bool
	Seed    uint64
}

// NewPipeline starts the pre-processor workers over ds.
func NewPipeline(ds *Dataset, cfg PipelineConfig) *Pipeline {
	if cfg.Slots < 1 {
		cfg.Slots = 2
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	p := &Pipeline{
		ds:      ds,
		batch:   cfg.Batch,
		augment: cfg.Augment,
		slots:   make([]*Slot, cfg.Slots),
		free:    make(chan int, cfg.Slots),
		full:    make(chan int, cfg.Slots),
		work:    make(chan workItem, cfg.Slots),
		stop:    make(chan struct{}),
	}
	for i := range p.slots {
		p.slots[i] = &Slot{
			X:      tensor.New(append([]int{cfg.Batch}, ds.Shape...)...),
			Labels: make([]int, cfg.Batch),
			idx:    i,
		}
		p.free <- i
	}
	// Dispatcher: the batcher is single-threaded, so one goroutine draws
	// index sets, stamps them with their sequence position, and fans them
	// out to the workers.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer close(p.work)
		b := NewBatcher(ds.Len(), cfg.Batch, cfg.Seed)
		for seq := 0; ; seq++ {
			item := workItem{seq: seq, idx: append([]int(nil), b.Next()...)}
			select {
			case p.work <- item:
			case <-p.stop:
				return
			}
		}
	}()
	for w := 0; w < cfg.Workers; w++ {
		p.wg.Add(1)
		rng := tensor.NewRNG(cfg.Seed + 1000 + uint64(w))
		go func(rng *tensor.RNG) {
			defer p.wg.Done()
			for {
				p.claimMu.Lock()
				var item workItem
				var ok bool
				select {
				case item, ok = <-p.work:
					if !ok {
						p.claimMu.Unlock()
						return
					}
				case <-p.stop:
					p.claimMu.Unlock()
					return
				}
				var si int
				select {
				case si = <-p.free:
				case <-p.stop:
					p.claimMu.Unlock()
					return
				}
				p.claimMu.Unlock()
				slot := p.slots[si]
				slot.Seq = item.seq
				p.ds.Gather(item.idx, slot.X, slot.Labels)
				if p.augment {
					augmentBatch(slot.X, p.ds.Shape, rng)
				}
				select {
				case p.full <- si:
				case <-p.stop:
					return
				}
			}
		}(rng)
	}
	return p
}

// workItem is one dispatched batch: its draw-sequence position and the
// sample indices to gather.
type workItem struct {
	seq int
	idx []int
}

// Acquire blocks until a filled slot is available and returns it. The
// caller must call Release exactly once when done with the slot. ok is
// false after Close.
func (p *Pipeline) Acquire() (s *Slot, ok bool) {
	// Close can leave staged slots in full, and a select with both arms
	// ready picks either: poll stop first so a closed pipeline never hands
	// out a slot.
	select {
	case <-p.stop:
		return nil, false
	default:
	}
	select {
	case si := <-p.full:
		return p.slots[si], true
	case <-p.stop:
		return nil, false
	}
}

// Release returns a consumed slot to the free pool.
func (p *Pipeline) Release(s *Slot) {
	select {
	case p.free <- s.idx:
	case <-p.stop:
	}
}

// Close stops the workers and waits for them to exit.
func (p *Pipeline) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	// Drain work so the dispatcher (blocked on send) can observe stop.
	p.wg.Wait()
}

// augmentBatch applies the light augmentation pre-processors perform
// (standing in for decode/crop/flip): a horizontal flip of each image with
// probability 1/2. Non-image (flat) samples are left untouched.
func augmentBatch(x *tensor.Tensor, shape []int, rng *tensor.RNG) {
	if len(shape) != 3 {
		return
	}
	c, h, w := shape[0], shape[1], shape[2]
	vol := c * h * w
	batch := x.Dim(0)
	xd := x.Data()
	for n := 0; n < batch; n++ {
		if rng.Float64() >= 0.5 {
			continue
		}
		img := xd[n*vol : (n+1)*vol]
		for ch := 0; ch < c; ch++ {
			for row := 0; row < h; row++ {
				base := ch*h*w + row*w
				for a, b := 0, w-1; a < b; a, b = a+1, b-1 {
					img[base+a], img[base+b] = img[base+b], img[base+a]
				}
			}
		}
	}
}
