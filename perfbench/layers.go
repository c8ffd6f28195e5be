package main

// layers computes the per-layer metrics of a traced serving run from the
// server counters and the spans of the traced latency pass.
func (m *httpMeasure) layers(rep *report, spans []span, stopped stopMsg, dials int64) {
	L := rep.layer

	// Client spans: the traced pass's records, keyed by request id.
	client := make(map[int64]record, len(m.tracedRecs))
	var lat, late dist
	for i, r := range m.tracedRecs {
		late = append(late, us(r.Late()))
		if r.OK {
			client[int64(i)+1] = r
			lat = append(lat, ms(r.Latency()))
		}
	}
	L["gen.late_p50_us"], L["gen.late_p99_us"] = late.pct(50).Value, late.pct(99).Value
	L["http.conns_dialed"] = float64(dials)

	// Index the server spans of latency-phase requests.
	top := map[int64]span{}      // request -> serve (search) or cluster span
	byParent := map[int64]span{} // Do span id -> worker serve span
	dos := map[int64][]span{}    // request -> Do spans
	var serveDur, coordDur, doDur dist
	var aggMs dist
	topKind := kindServe
	if m.wl.name == "cluster" {
		topKind = kindCoord
	}
	for _, s := range spans {
		if s.Kind == kindAggregate {
			aggMs = append(aggMs, ms(s.dur()))
			continue
		}
		if s.Req == 0 {
			continue // not a request of the traced segment
		}
		switch s.Kind {
		case kindServe:
			serveDur = append(serveDur, us(s.dur()))
			if topKind == kindServe {
				top[s.Req] = s
			} else {
				byParent[s.Parent] = s
			}
		case kindCoord:
			coordDur = append(coordDur, us(s.dur()))
			top[s.Req] = s
		case kindDo:
			doDur = append(doDur, us(s.dur()))
			dos[s.Req] = append(dos[s.Req], s)
		}
	}
	L["serve.handler_p50_us"], L["serve.handler_p99_us"] = serveDur.pct(50).Value, serveDur.pct(99).Value

	// Per request: the client hop, and on the cluster the coordinator's
	// self time and the slowest shard's hop and handler.
	var httpOver, self, hop, shardServe, partialBytes dist
	attempts := 0
	for req, t := range top {
		r, ok := client[req]
		if !ok {
			continue
		}
		httpOver = append(httpOver, us(r.End-r.Start-t.dur()))
		if topKind != kindCoord {
			continue
		}
		var slow span
		bytes := 0
		for _, d := range dos[req] {
			attempts++
			bytes += d.Bytes
			if d.dur() > slow.dur() {
				slow = d
			}
		}
		partialBytes = append(partialBytes, float64(bytes))
		self = append(self, us(t.dur()-slow.dur()))
		if w, ok := byParent[slow.ID]; ok {
			hop = append(hop, us(slow.dur()-w.dur()))
			shardServe = append(shardServe, us(w.dur()))
		}
	}
	L["http.overhead_p50_us"] = httpOver.median()

	q0, q1 := m.snapQ0, m.snapQ1
	var hits, misses, searches, recals, approx, execs, monitored int64
	var levelSum, lossSum float64
	var shed, partial int64
	for i := range q1.Serve {
		a, b := q0.Serve[i], q1.Serve[i]
		hits += b.Ops.QueryCacheHits - a.Ops.QueryCacheHits
		misses += b.Ops.QueryCacheMisses - a.Ops.QueryCacheMisses
		searches += b.Searches - a.Searches
		levelSum += b.LevelSum - a.LevelSum
		recals += b.Recals - a.Recals
		approx += b.ApproxPages - a.ApproxPages
		execs += b.Executions
		monitored += b.Monitored
		lossSum += b.MeanLoss * float64(b.Monitored)
	}
	end := m.snapEnd
	for _, s := range end.Serve {
		shed += s.Ops.Shed
		partial += s.Ops.DeadlinePartial
	}
	if hits+misses > 0 {
		L["serve.qcache_hit_share"] = float64(hits) / float64(hits+misses)
	}
	L["serve.allocs_per_query"] = float64(q1.Allocs-q0.Allocs) / float64(m.wl.qualityN)
	L["serve.shed"], L["serve.deadline_partial"] = float64(shed), float64(partial)
	L["search.docs_per_query"] = float64(m.docsScored) / float64(m.qualityPages)
	L["search.ns_per_doc"] = stopped.NsPerDoc
	if searches > 0 {
		L["search.approx_share"] = float64(approx) / float64(searches)
		L["core.level_mean"] = levelSum / float64(searches)
	}
	L["core.recalibrations"] = float64(recals)
	if execs > 0 {
		L["core.monitored_share"] = float64(monitored) / float64(execs)
	}
	if monitored > 0 {
		L["core.monitored_loss"] = lossSum / float64(monitored)
	}
	if cpu := end.TotalCPU - q1.TotalCPU; cpu > 0 {
		L["proc.gc_cpu_share"] = (end.GCCPU - q1.GCCPU) / cpu
	}

	// Reconciliation: the latency median against the sum of the layers'
	// self-time medians along the blocking path.
	tracedP50 := lat.median()
	layerSum := late.median() + httpOver.median()
	if topKind == kindCoord {
		L["cluster.handler_p50_us"], L["cluster.handler_p99_us"] = coordDur.pct(50).Value, coordDur.pct(99).Value
		L["cluster.shard_p50_us"], L["cluster.shard_p99_us"] = doDur.pct(50).Value, doDur.pct(99).Value
		L["cluster.self_p50_us"] = self.median()
		L["http.shard_hop_p50_us"] = hop.median()
		L["cluster.partial_bytes_per_query"] = partialBytes.mean()
		if n := len(top); n > 0 {
			L["cluster.retries"] = float64(attempts - n*shardCount)
		}
		qc0, qc1 := q0.Coord, q1.Coord
		if end.Coord != nil && qc0 != nil && qc1 != nil {
			L["cluster.hedges"] = float64(end.Coord.Hedges)
			if end.Coord.Queries > 0 {
				L["cluster.degraded_share"] = float64(end.Coord.Ops.Degraded) / float64(end.Coord.Queries)
			}
			L["cluster.budget_pushes"] = float64(qc1.AggPushes - qc0.AggPushes)
			L["cluster.aggregate_ms"] = dist(end.Coord.AggMillis).median()
		}
		layerSum += self.median() + hop.median() + shardServe.median()
		rep.note("layer self p50 us: gen %.1f, http %.1f, cluster %.1f, shard hop %.1f, serve (slowest shard) %.1f",
			late.median(), httpOver.median(), self.median(), hop.median(), shardServe.median())
	} else {
		layerSum += serveDur.median()
		rep.note("layer self p50 us: gen %.1f, http %.1f, serve %.1f",
			late.median(), httpOver.median(), serveDur.median())
	}
	L["trace.residual_us"] = tracedP50*1e3 - layerSum
	L["trace.overhead_us"] = (tracedP50 - m.untracedP50) * 1e3
	rep.note("reconciliation: traced lat_p50 %.1f us = layers %.1f us + residual %.1f us; tracing overhead %.1f us (untraced lat_p50 %.1f us)",
		tracedP50*1e3, layerSum, L["trace.residual_us"], L["trace.overhead_us"], m.untracedP50*1e3)
	rep.note("spans: %d server spans, %d traced requests, %d aggregate rounds", len(spans), len(top), len(aggMs))
}
