"""The SCAN application knowledge base.

"Having information about applications is critical for efficiently planning
genome analysis" (paper Section II-C).  The knowledge base couples the
semantic store (:mod:`repro.ontology`) with quantitative performance
profiles:

- :mod:`repro.knowledge.profiles` -- profiled observations per (application,
  stage) and regression fits recovering the a/b/c stage models.
- :mod:`repro.knowledge.kb` -- :class:`SCANKnowledgeBase`: stores
  observations both as ontology individuals (GATK1, GATK2, ... as in the
  paper's OWL listings) and as profile data; answers SPARQL queries.
- :mod:`repro.knowledge.advisor` -- the shard-size advisor the Data Broker
  queries ("the SCAN knowledge-base will advise the appropriate shard
  size").
- :mod:`repro.knowledge.log_ingest` -- knowledge-base expansion from task
  logs ("the log information will be used to further populate the SCAN
  knowledge-base").
"""
