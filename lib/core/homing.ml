module Asn = Rpi_bgp.Asn
module As_graph = Rpi_topo.As_graph

type report = {
  provider : Asn.t;
  multihomed : int;
  single_homed : int;
  pct_multihomed : float;
}

let analyze graph ~provider records =
  let origins =
    List.map (fun (r : Export_infer.sa_record) -> r.Export_infer.origin) records
    |> List.sort_uniq Asn.compare
  in
  let multihomed, single_homed =
    List.fold_left
      (fun (m, s) origin ->
        if As_graph.is_multihomed graph origin then (m + 1, s) else (m, s + 1))
      (0, 0) origins
  in
  let total = multihomed + single_homed in
  {
    provider;
    multihomed;
    single_homed;
    pct_multihomed =
      (if total = 0 then 0.0 else 100.0 *. float_of_int multihomed /. float_of_int total);
  }
