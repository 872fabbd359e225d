# Bench targets are defined at the top level (via include()) so that
# build/bench/ contains ONLY the runnable binaries:
#
#   for b in build/bench/*; do $b; done
#
# regenerates every table and figure of the paper.

add_library(pol_bench_util STATIC ${PROJECT_SOURCE_DIR}/bench/bench_util.cc)
target_include_directories(pol_bench_util PUBLIC ${PROJECT_SOURCE_DIR})
target_link_libraries(pol_bench_util PUBLIC pol_usecases pol_core pol_sim
  pol_flow pol_ais pol_stats pol_hexgrid pol_geo pol_common)
set_target_properties(pol_bench_util PROPERTIES
  ARCHIVE_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/lib)

function(pol_add_bench name)
  add_executable(${name} ${PROJECT_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(${name} PRIVATE pol_bench_util)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

pol_add_bench(bench_table1_dataset)
pol_add_bench(bench_table4_compression)
pol_add_bench(bench_fig1_global_maps)
pol_add_bench(bench_fig4_baltic)
pol_add_bench(bench_fig5_ata)
pol_add_bench(bench_fig6_destinations)
pol_add_bench(bench_query_speedup)
pol_add_bench(bench_eta)
pol_add_bench(bench_route_forecast)

pol_add_bench(bench_adaptive_ablation)
pol_add_bench(bench_suez_disruption)
pol_add_bench(bench_checkpoint)
pol_add_bench(bench_obs_overhead)
pol_add_bench(bench_serving_telemetry)
pol_add_bench(bench_snapshot_store)

# Microbenchmarks use google-benchmark.
pol_add_bench(bench_micro)
target_link_libraries(bench_micro PRIVATE benchmark::benchmark)
