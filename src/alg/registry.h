// The router registry: every routing strategy in the library as a named
// entry behind the uniform core/router.h contract.
//
// Portfolio and parallel FPGA routers get their leverage from treating
// routers as interchangeable strategies behind one interface; this
// registry is that shape for segroute. Consumers (robust_route's cascade,
// the batch engine, capacity search, benches, tests) select routers by
// name, query capability flags instead of hard-coding per-router
// knowledge, and dispatch through one non-throwing entry point. Adding a
// backend is one RouterEntry in registry.cpp — no consumer changes.
#pragma once

#include <string_view>
#include <vector>

#include "alg/result.h"
#include "core/router.h"
#include "io/table.h"

namespace segroute::alg {

/// One registered router. `name` and the descriptive strings have static
/// storage duration (usable directly as span names/tags). `route` never
/// throws on invalid input: malformed requests — and requests outside
/// the capability envelope — come back as kInvalidInput.
struct RouterEntry {
  const char* name;        // registry key, e.g. "dp"
  const char* problem;     // paper problem solved + section
  const char* complexity;  // headline bound or "heuristic"
  RouterCaps caps;
  RouteResult (*route)(const RouteRequest&);
};

/// All registered routers, in stable documentation order. The reference
/// list for "run everything" sweeps (benches, property tests).
const std::vector<RouterEntry>& registry();

/// Looks up a router by name; nullptr if unknown.
const RouterEntry* find_router(std::string_view name);

/// Dispatches a request to `e` with the uniform pre-checks applied
/// first: null channel/connections, negative K, a weight the router
/// does not support (or a missing one it requires), and channel shapes
/// outside its capability envelope (needs_identical_tracks,
/// needs_le2_segments_per_track) all return kInvalidInput without
/// invoking the router. Emits one "alg.route" span tagged
/// router=<name>. Never throws on invalid input.
RouteResult route(const RouterEntry& e, const RouteRequest& req);

/// By-name dispatch; an unknown name is kInvalidInput, not a throw.
RouteResult route(std::string_view name, const RouteRequest& req);

/// The registry rendered as an io::Table (name, problem, exact, optimal,
/// complexity) — the README's router table is generated from this.
io::Table capability_table();

}  // namespace segroute::alg
