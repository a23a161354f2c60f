"""Reproduction of "Counting Edges with Target Labels in Online Social
Networks via Random Walk" (Wu, Long, Fu, Chen — EDBT 2018).

Subpackages: ``graphs`` (generators, CSR, LCC, ground-truth stats),
``osn`` (restricted-access API, mixing time), ``core`` (NeighborSample /
NeighborExploration estimators, bounds), ``baselines``
(ICDE'15 samplers on the implicit line graph), ``harness`` (datasets,
Spark Monte-Carlo fan-out, paper tables). See DESIGN.md.
"""
