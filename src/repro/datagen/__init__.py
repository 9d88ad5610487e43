"""Synthetic benchmark dataset generation.

The paper's synthetic companies and securities datasets are derived from a
licensed Crunchbase export; here the seed corpus itself is generated
procedurally (see ``DESIGN.md``, substitution 1) and the same *data artifact*
machinery described in Section 3.2 is applied on top:

* :mod:`repro.datagen.records` — the record / dataset model,
* :mod:`repro.datagen.identifiers` — ISIN / CUSIP / SEDOL / VALOR
  generation and validation with real check-digit algorithms,
* :mod:`repro.datagen.seed` — the procedural seed-company corpus,
* :mod:`repro.datagen.artifacts` — the data artifacts (AcronymName,
  InsertCorporateTerm, acquisitions, mergers, MultipleIDs, NoIdOverlaps, …),
* :mod:`repro.datagen.generator` — multi-source companies + securities
  dataset generation with ground truth,
* :mod:`repro.datagen.wdc` — a WDC-Products-style product matching benchmark,
* :mod:`repro.datagen.examples` — the small Figure 2 example dataset,
* :mod:`repro.datagen.stats` — Table 1 statistics.
"""

from repro.datagen.records import (
    CompanyRecord,
    Dataset,
    ProductRecord,
    Record,
    SecurityRecord,
)
from repro.datagen.config import GenerationConfig, RealLikeConfig, SyntheticConfig
from repro.datagen.generator import SyntheticDatasetGenerator, generate_benchmark
from repro.datagen.seed import SeedCompany
from repro.datagen.stats import DatasetStatistics, dataset_statistics
from repro.datagen.wdc import WdcProductsGenerator, generate_wdc_products
from repro.datagen.examples import figure2_dataset

__all__ = [
    "Record",
    "CompanyRecord",
    "SecurityRecord",
    "ProductRecord",
    "Dataset",
    "GenerationConfig",
    "SyntheticConfig",
    "RealLikeConfig",
    "SyntheticDatasetGenerator",
    "generate_benchmark",
    "SeedCompany",
    "DatasetStatistics",
    "dataset_statistics",
    "WdcProductsGenerator",
    "generate_wdc_products",
    "figure2_dataset",
]
