#ifndef POL_CORE_ENRICH_H_
#define POL_CORE_ENRICH_H_

#include <unordered_map>
#include <vector>

#include "ais/types.h"
#include "core/records.h"
#include "flow/dataset.h"

// Enrichment (paper section 3.3.1, second half): joins positional
// records with the static vessel registry to annotate each record with
// its market segment, and applies the commercial-fleet filter that cuts
// the dataset by an order of magnitude (Table 1: 600 GB -> 60 GB).

namespace pol::core {

// Stats ACCUMULATE across Enrich calls (the pipeline enriches chunk by
// chunk); pass a fresh struct for single-call totals.
struct EnrichmentStats {
  uint64_t input = 0;
  uint64_t unknown_vessel = 0;
  uint64_t non_commercial = 0;
  uint64_t kept = 0;

  bool operator==(const EnrichmentStats&) const = default;

  void Accumulate(const EnrichmentStats& other) {
    input += other.input;
    unknown_vessel += other.unknown_vessel;
    non_commercial += other.non_commercial;
    kept += other.kept;
  }
};

class Enricher {
 public:
  explicit Enricher(const std::vector<ais::VesselInfo>& registry);

  // Annotates records with vessel segments. When `commercial_only`,
  // records of unknown vessels and of vessels outside the commercial
  // fleet (segment, tonnage, transceiver class; see IsCommercialFleet)
  // are dropped.
  flow::Dataset<PipelineRecord> Enrich(
      const flow::Dataset<PipelineRecord>& records, bool commercial_only,
      EnrichmentStats* stats) const;

  const ais::VesselInfo* Find(ais::Mmsi mmsi) const;

 private:
  std::unordered_map<ais::Mmsi, ais::VesselInfo> registry_;
};

}  // namespace pol::core

#endif  // POL_CORE_ENRICH_H_
