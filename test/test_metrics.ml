(* Unit and property tests for cloudtx_metrics. *)

module Running_stats = Cloudtx_metrics.Running_stats
module Sample_set = Cloudtx_metrics.Sample_set
module Table = Cloudtx_metrics.Table
module Timeline = Cloudtx_metrics.Timeline

(* ------------------------------------------------------------------ *)
(* Running_stats                                                       *)
(* ------------------------------------------------------------------ *)

let test_stats_empty () =
  let s = Running_stats.create () in
  Alcotest.(check (float 0.)) "mean" 0. (Running_stats.mean s)

let test_stats_known_values () =
  let s = Running_stats.create () in
  List.iter (Running_stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check (float 1e-9)) "mean" 5. (Running_stats.mean s)

let prop_stats_mean =
  QCheck.Test.make ~name:"running mean equals list mean" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Running_stats.create () in
      List.iter (Running_stats.add s) xs;
      let expected =
        List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
      in
      Float.abs (Running_stats.mean s -. expected) <= 1e-6)

(* ------------------------------------------------------------------ *)
(* Sample_set                                                          *)
(* ------------------------------------------------------------------ *)

let test_percentiles () =
  let s = Sample_set.create () in
  List.iter (Sample_set.add s) [ 15.; 20.; 35.; 40.; 50. ];
  Alcotest.(check (float 1e-9)) "median" 35. (Sample_set.median s);
  Alcotest.(check (float 1e-9)) "p0" 15. (Sample_set.percentile s 0.);
  Alcotest.(check (float 1e-9)) "p100" 50. (Sample_set.percentile s 100.);
  Alcotest.(check (float 1e-9)) "p25" 20. (Sample_set.percentile s 25.)

let test_percentile_errors () =
  let s = Sample_set.create () in
  Alcotest.check_raises "empty" (Invalid_argument "Sample_set.percentile: empty")
    (fun () -> ignore (Sample_set.percentile s 50.));
  Sample_set.add s 1.;
  Alcotest.check_raises "range"
    (Invalid_argument "Sample_set.percentile: out of range") (fun () ->
      ignore (Sample_set.percentile s 101.))

let test_sample_growth () =
  let s = Sample_set.create () in
  for i = 1 to 1000 do
    Sample_set.add s (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Sample_set.count s);
  Alcotest.(check (float 1e-9)) "mean" 500.5 (Sample_set.mean s);
  Alcotest.(check (float 1e-9)) "min" 1. (Sample_set.min s);
  Alcotest.(check (float 1e-9)) "max" 1000. (Sample_set.max s)

let test_negative_samples () =
  (* Regression: sorting used polymorphic compare on a float array and
     min/max re-scanned the samples; negative and unsorted inputs must
     order correctly under Float.compare. *)
  let s = Sample_set.create () in
  List.iter (Sample_set.add s) [ 3.; -5.; 1.5; -2.; 0. ];
  Alcotest.(check (float 1e-9)) "min" (-5.) (Sample_set.min s);
  Alcotest.(check (float 1e-9)) "max" 3. (Sample_set.max s);
  Alcotest.(check (float 1e-9)) "median" 0. (Sample_set.median s);
  Alcotest.(check (float 1e-9)) "p0" (-5.) (Sample_set.percentile s 0.)

let test_running_min_max () =
  (* Regression: min/max are maintained incrementally; interleaved adds
     must never lose an extreme. *)
  let s = Sample_set.create () in
  for i = 0 to 99 do
    Sample_set.add s (if i mod 2 = 0 then float_of_int i else -.float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "min" (-99.) (Sample_set.min s);
  Alcotest.(check (float 1e-9)) "max" 98. (Sample_set.max s);
  Sample_set.add s 1000.;
  Sample_set.add s (-1000.);
  Alcotest.(check (float 1e-9)) "max updates" 1000. (Sample_set.max s);
  Alcotest.(check (float 1e-9)) "min updates" (-1000.) (Sample_set.min s)

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile stays within [min, max]" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 40) (float_range (-100.) 100.))
        (float_range 0. 100.))
    (fun (xs, p) ->
      let s = Sample_set.create () in
      List.iter (Sample_set.add s) xs;
      let v = Sample_set.percentile s p in
      v >= Sample_set.min s -. 1e-9 && v <= Sample_set.max s +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Table and Timeline                                                  *)
(* ------------------------------------------------------------------ *)

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_table_render () =
  let out =
    Table.render ~headers:[ "name"; "value" ]
      [ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | header :: _ ->
    Alcotest.(check bool) "header contains name" true
      (String.length header >= String.length "name  value")
  | [] -> Alcotest.fail "no output");
  Alcotest.(check bool) "mentions alpha" true (contains_sub out "alpha");
  Alcotest.check_raises "arity"
    (Invalid_argument "Table.render: row 0 has 1 cells, expected 2") (fun () ->
      ignore (Table.render ~headers:[ "a"; "b" ] [ [ "x" ] ]))

let test_table_alignment () =
  let out =
    Table.render
      ~aligns:[ Table.Left; Table.Right ]
      ~headers:[ "k"; "v" ]
      [ [ "a"; "1" ]; [ "bb"; "22" ] ]
  in
  (* Right-aligned "1" under "22" means the 1 is preceded by a space. *)
  Alcotest.(check bool) "right alignment pads" true
    (String.length out > 0)

let test_timeline_markers () =
  let rows =
    [
      { Timeline.label = "s1"; events = [ (0., `Query); (10., `Proof) ] };
      { Timeline.label = "s2"; events = [ (5., `Sync) ] };
    ]
  in
  let out = Timeline.render ~width:21 ~t_start:0. ~t_end:10. rows in
  Alcotest.(check bool) "has query marker" true (String.contains out '*');
  Alcotest.(check bool) "has proof marker" true (String.contains out '!');
  Alcotest.(check bool) "has sync marker" true (String.contains out '|')

let test_timeline_proof_wins () =
  (* A query and proof in the same cell render as the proof. *)
  let rows = [ { Timeline.label = "s"; events = [ (5., `Query); (5., `Proof) ] } ] in
  let out = Timeline.render ~width:10 ~t_start:0. ~t_end:10. rows in
  Alcotest.(check bool) "proof visible" true (String.contains out '!');
  Alcotest.(check bool) "query hidden" false (String.contains out '*')

let test_timeline_errors () =
  Alcotest.check_raises "empty interval"
    (Invalid_argument "Timeline.render: empty interval") (fun () ->
      ignore (Timeline.render ~width:20 ~t_start:1. ~t_end:1. []));
  Alcotest.check_raises "narrow"
    (Invalid_argument "Timeline.render: width too small") (fun () ->
      ignore (Timeline.render ~width:5 ~t_start:0. ~t_end:1. []))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "metrics"
    [
      ( "running_stats",
        [
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "known values" `Quick test_stats_known_values;
          qc prop_stats_mean;
        ] );
      ( "sample_set",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "errors" `Quick test_percentile_errors;
          Alcotest.test_case "growth" `Quick test_sample_growth;
          Alcotest.test_case "negative samples" `Quick test_negative_samples;
          Alcotest.test_case "running min max" `Quick test_running_min_max;
          qc prop_percentile_bounded;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "table render" `Quick test_table_render;
          Alcotest.test_case "table alignment" `Quick test_table_alignment;
          Alcotest.test_case "timeline markers" `Quick test_timeline_markers;
          Alcotest.test_case "timeline proof precedence" `Quick
            test_timeline_proof_wins;
          Alcotest.test_case "timeline errors" `Quick test_timeline_errors;
        ] );
    ]
