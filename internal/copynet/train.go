package copynet

import (
	"math"

	"cnprobase/internal/nn"
)

// params lists every parameter/gradient pair for the optimizer.
func (m *Model) params() []nn.ParamPair {
	pairs := []nn.ParamPair{
		{W: m.eIn.Data, G: m.gEIn.Data},
		{W: m.eOut.Data, G: m.gEOut.Data},
		{W: m.wInit.Data, G: m.gWInit.Data},
		{W: m.bInit, G: m.gBInit},
		{W: m.wa.Data, G: m.gWa.Data},
		{W: m.ua.Data, G: m.gUa.Data},
		{W: m.va, G: m.gVa},
		{W: m.wo.Data, G: m.gWo.Data},
		{W: m.bo, G: m.gBo},
		{W: m.wg, G: m.gWg},
		{W: m.bg, G: m.gBg},
	}
	return append(pairs, m.gru.Params()...)
}

// stepRecord couples a forward step with its training target.
type stepRecord struct {
	sf      *stepForward
	prob    float64
	genID   int
	matches []int
}

// trainStep runs forward + backward on one sample, accumulating
// gradients, and returns the per-token loss.
func (m *Model) trainStep(s Sample) float64 {
	ids, emb, mean, s0 := m.encode(s.Src)
	src := s.Src
	if len(src) > m.cfg.MaxSrc {
		src = src[:m.cfg.MaxSrc]
	}
	tgt := m.targetSeq(s.Tgt)

	// ---- forward ----
	var steps []stepRecord
	state := s0
	prev := BOS
	loss := 0.0
	for _, w := range tgt {
		sf := m.step(prev, state, emb)
		p, genID, matches := m.probOf(sf, src, w)
		loss += -math.Log(p + 1e-12)
		steps = append(steps, stepRecord{sf: sf, prob: p, genID: genID, matches: matches})
		state = sf.gruCache.H
		prev = m.vocab.ID(w)
	}

	// ---- backward ----
	h, d := m.cfg.Hidden, m.cfg.Dim
	dState := nn.NewVec(h)
	deAcc := make([]nn.Vec, len(emb))
	for i := range deAcc {
		deAcc[i] = nn.NewVec(d)
	}
	for t := len(steps) - 1; t >= 0; t-- {
		st := steps[t]
		sf := st.sf
		dp := -1.0 / (st.prob + 1e-12)
		g := sf.gate

		// Gate gradient: P = (1-g)·pgen[genID] + g·copyMass.
		dag := 0.0
		if m.cfg.UseCopy {
			copyMass := 0.0
			for _, i := range st.matches {
				copyMass += sf.alpha[i]
			}
			dg := dp * (copyMass - sf.pgen[st.genID])
			dag = dg * g * (1 - g)
		}

		// Generate path: softmax backward touching only pgen[genID].
		dlogits := nn.NewVec(m.vocab.Size())
		coeff := dp * (1 - g) * sf.pgen[st.genID]
		if coeff != 0 {
			for j := range dlogits {
				dlogits[j] = -coeff * sf.pgen[j]
			}
			dlogits[st.genID] += coeff
		}

		// dcat = Woᵀ·dlogits + wg·dag; parameter grads alongside.
		dcat := nn.NewVec(h + d)
		nn.MatTVecAdd(dcat, m.wo, dlogits)
		nn.AddOuter(m.gWo, dlogits, sf.cat)
		m.gBo.Add(dlogits)
		if dag != 0 {
			dcat.AddScaled(m.wg, dag)
			m.gWg.AddScaled(sf.cat, dag)
			m.gBg[0] += dag
		}
		ds := nn.Vec(dcat[:h]).Clone()
		ds.Add(dState)
		dctx := nn.Vec(dcat[h:])

		// Attention weight gradients: copy path + context path.
		dalpha := nn.NewVec(len(emb))
		if m.cfg.UseCopy {
			for _, i := range st.matches {
				dalpha[i] += dp * g
			}
		}
		for i, e := range emb {
			dalpha[i] += dctx.Dot(e)
			deAcc[i].AddScaled(dctx, sf.alpha[i])
		}
		// Softmax backward over attention scores.
		sum := 0.0
		for i := range dalpha {
			sum += dalpha[i] * sf.alpha[i]
		}
		for i := range emb {
			dsc := sf.alpha[i] * (dalpha[i] - sum)
			if dsc == 0 {
				continue
			}
			th := sf.tanhs[i]
			dtanh := nn.NewVec(m.cfg.Att)
			for k := range dtanh {
				dtanh[k] = dsc * m.va[k] * (1 - th[k]*th[k])
			}
			m.gVa.AddScaled(th, dsc)
			nn.AddOuter(m.gWa, dtanh, emb[i])
			nn.MatTVecAdd(deAcc[i], m.wa, dtanh)
			nn.AddOuter(m.gUa, dtanh, sf.gruCache.H)
			nn.MatTVecAdd(ds, m.ua, dtanh)
		}

		// GRU backward; decoder-input embedding gradient.
		dX, dHPrev := m.gru.Backward(ds, sf.gruCache)
		m.gEOut.Row(sf.prevID).Add(dX)
		dState = dHPrev
	}

	// Initial-state backward: s0 = tanh(WInit·mean + bInit).
	ds0pre := nn.NewVec(h)
	for i := range ds0pre {
		ds0pre[i] = dState[i] * (1 - s0[i]*s0[i])
	}
	nn.AddOuter(m.gWInit, ds0pre, mean)
	m.gBInit.Add(ds0pre)
	if len(emb) > 0 {
		dmean := nn.NewVec(d)
		nn.MatTVecAdd(dmean, m.wInit, ds0pre)
		inv := 1.0 / float64(len(emb))
		for i := range deAcc {
			deAcc[i].AddScaled(dmean, inv)
		}
	}
	for i, id := range ids {
		m.gEIn.Row(id).Add(deAcc[i])
	}
	return loss / float64(len(tgt))
}

// TrainReport carries per-epoch training progress.
type TrainReport struct {
	Epoch int
	Loss  float64
}

// Train fits the model on samples for the given number of epochs with
// Adam(lr), shuffling each epoch with the model's deterministic RNG.
// The optional progress callback receives one report per epoch.
func (m *Model) Train(samples []Sample, epochs int, lr float64, progress func(TrainReport)) {
	if len(samples) == 0 || epochs <= 0 {
		return
	}
	if m.opt == nil {
		m.opt = nn.NewAdam(lr)
		m.opt.Register(m.params()...)
	}
	m.opt.LR = lr
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	for e := 0; e < epochs; e++ {
		m.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		total := 0.0
		for _, idx := range order {
			total += m.trainStep(samples[idx])
			m.opt.Step()
		}
		if progress != nil {
			progress(TrainReport{Epoch: e + 1, Loss: total / float64(len(samples))})
		}
	}
}

// Generate greedily decodes the concept token sequence for a segmented
// abstract. The mixed generate/copy distribution lets it emit source
// surface tokens that are out of vocabulary — the CopyNet property the
// paper adopts it for.
func (m *Model) Generate(src []string) []string {
	if len(src) == 0 {
		return nil
	}
	_, emb, _, state := m.encode(src)
	bounded := src
	if len(bounded) > m.cfg.MaxSrc {
		bounded = bounded[:m.cfg.MaxSrc]
	}
	prev := BOS
	var out []string
	for t := 0; t < m.cfg.MaxTgt; t++ {
		sf := m.step(prev, state, emb)
		// Copy mass per distinct source surface.
		mass := make(map[string]float64, len(bounded))
		if m.cfg.UseCopy {
			for i, w := range bounded {
				mass[w] += sf.gate * sf.alpha[i]
			}
		}
		bestWord, bestScore := "<eos>", math.Inf(-1)
		for j := 0; j < m.vocab.Size(); j++ {
			if j == BOS || j == UNK {
				continue
			}
			w := m.vocab.Word(j)
			score := (1-sf.gate)*sf.pgen[j] + mass[w]
			if score > bestScore {
				bestScore, bestWord = score, w
			}
		}
		// Source order, not map order: of two out-of-vocabulary words
		// with equal mass, the first in the source wins in every run.
		for _, w := range bounded {
			if m.vocab.Known(w) {
				continue // already scored above
			}
			if cm := mass[w]; cm > bestScore {
				bestScore, bestWord = cm, w
			}
		}
		if bestWord == "<eos>" {
			break
		}
		out = append(out, bestWord)
		prev = m.vocab.ID(bestWord)
		state = sf.gruCache.H
	}
	return out
}
