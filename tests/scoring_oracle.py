"""Reference ``h`` and ``g_increment``: the row-scan scoring before plans.

:class:`~repro.core.scoring.ScoreModel` answers both from per-depth plans
compiled once per mapped-source set.  These are the scans they replaced,
kept verbatim as the oracle the plan path must equal bit for bit: every
call walks all pattern rows (``h``) or the inverted index (``g``) from
scratch.  Property and parity tests call them directly or patch them over
the model's methods (the signatures match).
"""

from __future__ import annotations

from repro.core.bounds import BoundKind
from repro.core.distance import frequency_similarity


def oracle_h(self, mapping, unmapped_targets):
    """The pre-plan ``ScoreModel.h`` (``self`` is the model)."""
    mapped = mapping.keys()
    if self.bound is BoundKind.SIMPLE:
        return float(
            sum(1 for row in self._h_rows if not row[0] <= mapped)
        )

    graph_2 = self.graph_2
    caps = self.caps
    unmapped_set = (
        unmapped_targets
        if isinstance(unmapped_targets, (set, frozenset))
        else set(unmapped_targets)
    )
    num_unmapped = len(unmapped_set)
    mapped_values = set(mapping.values())
    fast = (
        num_unmapped + len(mapped_values) == self._num_targets
        and unmapped_set.isdisjoint(mapped_values)
        and mapped_values <= self._target_set
    )
    if fast:
        self.caps_fast_path += 1
        base_vertex_cap = caps.max_vertex_excluding(mapped_values)
    else:
        self.caps_slow_path += 1
        base_vertex_cap = graph_2.max_vertex_weight(unmapped_set)
    probe = self.probe
    if probe.enabled:
        probe.on_bound_caps(fast)
    exact_edges = self.bound is BoundKind.TIGHT
    if exact_edges:
        if fast:
            unmapped_edge_max = caps.max_edge_excluding(mapped_values)
        else:
            unmapped_edge_max = graph_2.max_edge_weight(unmapped_set)

    no_image_cap: dict[int, float] = {}
    if exact_edges and not fast:
        all_candidates = unmapped_set | mapped_values
    incident_cache = {}
    placed_out_cache = {}
    placed_in_cache = {}

    mapping_get = mapping.get
    total = 0.0
    for events, frequency_1, omega, mandatory, size in self._h_rows:
        if events <= mapped:
            continue
        images = [mapping[event] for event in events if event in mapped]
        if size > num_unmapped + len(images):
            continue
        if frequency_1 == 0.0:
            continue

        if not images:
            if size >= 2:
                cap = no_image_cap.get(omega)
                if cap is None:
                    edge_max = (
                        unmapped_edge_max
                        if exact_edges
                        else self._global_max_edge_2
                    )
                    cap = min(base_vertex_cap, omega * edge_max)
                    no_image_cap[omega] = cap
            else:
                cap = base_vertex_cap
            if cap <= frequency_1:
                total += frequency_similarity(frequency_1, cap)
            else:
                total += 1.0
            continue

        vertex_cap = base_vertex_cap
        for image in images:
            weight = graph_2.vertex_weight(image)
            if weight < vertex_cap:
                vertex_cap = weight

        if size >= 2:
            if exact_edges:
                edge_component = unmapped_edge_max
                for image in images:
                    incident = incident_cache.get(image)
                    if incident is None:
                        if fast:
                            incident = caps.incident_max(image)
                        else:
                            incident = max(
                                graph_2.max_outgoing_weight(
                                    image, all_candidates
                                ),
                                graph_2.max_incoming_weight(
                                    image, all_candidates
                                ),
                            )
                        incident_cache[image] = incident
                    if incident > edge_component:
                        edge_component = incident
            else:
                edge_component = self._global_max_edge_2
            for source, target in mandatory:
                source_image = mapping_get(source)
                target_image = mapping_get(target)
                if source_image is not None and target_image is not None:
                    placed = graph_2.edge_weight_or_zero(
                        source_image, target_image
                    )
                elif source_image is not None:
                    placed = placed_out_cache.get(source_image)
                    if placed is None:
                        if fast:
                            placed = caps.max_outgoing_excluding(
                                source_image, mapped_values
                            )
                        else:
                            placed = graph_2.max_outgoing_weight(
                                source_image, unmapped_set
                            )
                        placed_out_cache[source_image] = placed
                elif target_image is not None:
                    placed = placed_in_cache.get(target_image)
                    if placed is None:
                        if fast:
                            placed = caps.max_incoming_excluding(
                                target_image, mapped_values
                            )
                        else:
                            placed = graph_2.max_incoming_weight(
                                target_image, unmapped_set
                            )
                        placed_in_cache[target_image] = placed
                else:
                    continue
                if placed < edge_component:
                    edge_component = placed
                    if edge_component == 0.0:
                        break
            frequency_cap = min(vertex_cap, omega * edge_component)
        else:
            frequency_cap = vertex_cap

        if frequency_cap <= frequency_1:
            total += frequency_similarity(frequency_1, frequency_cap)
        else:
            total += 1.0
    return total


def oracle_g_increment(self, new_source, mapping_after, stats=None):
    """The pre-plan ``ScoreModel.g_increment``: index scan, no memo."""
    increment = 0.0
    for pattern in self.index.newly_completed(new_source, mapping_after.keys()):
        increment += self.contribution(pattern, mapping_after, stats)
    return increment
