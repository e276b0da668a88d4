#!/usr/bin/env python
"""A tour of the SCAN semantic model and knowledge base.

Recreates Section III-A.1 interactively:

1. build the SCAN ontology (domain + cloud + linker over a Gene Ontology
   slice);
2. add the paper's GATK1..GATK4 profiling individuals and print them as
   RDF/XML, matching the paper's OWL listings;
3. run the Data Broker's SPARQL ranking query;
4. bootstrap the quantitative profile store and recover Table II by
   regression;
5. ask the shard advisor what it would do with a 100 GB input.

Run:  python examples/knowledge_base_tour.py
"""

from repro.apps.gatk import GATK_STAGES, build_gatk_model
from repro.knowledge.advisor import ShardAdvisor
from repro.knowledge.kb import SCANKnowledgeBase
from repro.knowledge.profiles import ProfileObservation
from repro.ontology import SCAN, to_rdfxml
from repro.scheduler.rewards import ThroughputReward


def main() -> None:
    kb = SCANKnowledgeBase()
    onto = kb.ontology

    print("== The SCAN semantic model ==")
    print(f"triples in the shared store : {len(onto.store)}")
    genome = onto.scan.individuals_of(SCAN["GenomeAnalysis"])
    workflows = [i.local_name for i in genome]
    print(f"genome-analysis workflows   : {len(workflows)} "
          f"({', '.join(sorted(workflows)[:4])}, ...)")
    private = onto.scan.get_individual("PrivateTier")
    print(f"private tier (cloud onto)   : {private.get('coreCount')} cores "
          f"@ {private.get('corePrice')} CU/TU")

    print("\n== Knowledge-base expansion (the paper's GATK1..GATK4) ==")
    for size, etime in [(10, 180), (5, 200), (20, 280), (4, 80)]:
        name = kb.record_observation(
            ProfileObservation(
                app="gatk", stage=0, input_gb=size, threads=8,
                execution_time=etime, cpu=8, ram_gb=4.0,
            )
        )
        print(f"recorded {name}: inputFileSize={size} eTime={etime}")

    print("\nRDF/XML serialization (cf. the paper's OWL listing):")
    xml = to_rdfxml(onto.store)
    in_block = False
    for line in xml.splitlines():
        if "GATK1" in line:
            in_block = True
        if in_block:
            print(f"  {line}")
            if "</owl:NamedIndividual>" in line:
                break

    print("\n== The Data Broker's SPARQL ranking query ==")
    query = f"""
    PREFIX scan: <{SCAN.base}>
    SELECT ?instance ?size ?etime
    WHERE {{
        ?instance rdf:type scan:Application .
        ?instance scan:inputFileSize ?size .
        ?instance scan:eTime ?etime .
    }}
    ORDER BY ASC(?etime) ASC(?size)
    """
    print(query)
    for row in kb.query(query):
        print(f"  {row['instance'].local_name}: size={row['size']} "
              f"eTime={row['etime']}")

    print("\n== Recovering Table II from profiling observations ==")
    kb2 = SCANKnowledgeBase()
    kb2.bootstrap_from_model(build_gatk_model())
    print(f"{'stage':24s} {'a (paper/fit)':>16s} {'b':>14s} {'c':>14s}")
    for (name, a, b, c, _ram), fit in zip(
        GATK_STAGES, kb2.fitted_stage_models("gatk")
    ):
        print(
            f"{name:24s} {a:6.2f}/{fit.a:6.2f} {b:6.2f}/{fit.b:6.2f} "
            f"{c:6.2f}/{fit.c:6.2f}"
        )

    print("\n== Shard advice for a 100 GB input ==")
    advisor = ShardAdvisor(kb2)
    advice = advisor.advise(
        "gatk",
        total_gb=100.0,
        parallel_workers=50,
        core_cost_per_tu=5.0,
        reward_fn=ThroughputReward(),
    )
    print(f"  {advice}")
    print(f"  predicted per-task time : {advice.predicted_task_time:.1f} TU")
    print(f"  predicted makespan      : {advice.predicted_makespan:.1f} TU")


if __name__ == "__main__":
    main()
