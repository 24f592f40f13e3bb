let add_int b n = Buffer.add_string b (string_of_int n)

let dimacs_cnf_string f =
  if Formula.num_pbs f > 0 then
    invalid_arg "Output.dimacs_cnf_string: formula has PB constraints";
  if Formula.objective f <> None then
    invalid_arg "Output.dimacs_cnf_string: formula has an objective";
  let b = Buffer.create 4096 in
  Printf.bprintf b "p cnf %d %d\n" (Formula.num_vars f) (Formula.num_clauses f);
  Formula.iter_clauses
    (fun c ->
      Clause.iter
        (fun l ->
          add_int b (Lit.to_dimacs l);
          Buffer.add_char b ' ')
        c;
      Buffer.add_string b "0\n")
    f;
  Buffer.contents b

(* one OPB term, "%+d x%d " or "%+d ~x%d " *)
let add_term b c l =
  if c >= 0 then Buffer.add_char b '+';
  add_int b c;
  Buffer.add_string b (if Lit.sign l then " x" else " ~x");
  add_int b (Lit.var l + 1);
  Buffer.add_char b ' '

let opb_string f =
  let b = Buffer.create 65536 in
  Printf.bprintf b "* #variable= %d #constraint= %d\n" (Formula.num_vars f)
    (Formula.num_clauses f + Formula.num_pbs f);
  (match Formula.objective f with
  | None -> ()
  | Some terms ->
    Buffer.add_string b "min: ";
    List.iter (fun (c, l) -> add_term b c l) terms;
    Buffer.add_string b ";\n");
  Formula.iter_clauses
    (fun c ->
      Clause.iter (add_term b 1) c;
      Buffer.add_string b ">= 1 ;\n")
    f;
  Formula.iter_pbs
    (fun pb ->
      Array.iteri (fun i l -> add_term b pb.Pbc.coefs.(i) l) pb.Pbc.lits;
      Printf.bprintf b ">= %d ;\n" pb.Pbc.bound)
    f;
  Buffer.contents b

let to_opb ppf f = Format.pp_print_string ppf (opb_string f)

(* One pass over the text. Tokens end at blanks or ';', which closes a
   statement; a '*' where a token would start comments out its line. *)
let parse_opb text =
  let f = Formula.create () in
  let n = String.length text and pos = ref 0 in
  let blank = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false in
  let rec skip () =
    while !pos < n && blank text.[!pos] do
      incr pos
    done;
    if !pos < n && text.[!pos] = '*' then begin
      pos := Option.value (String.index_from_opt text !pos '\n') ~default:n;
      skip ()
    end
  in
  (* the next token; "" at ';' or the end *)
  let token () =
    skip ();
    let s = !pos in
    while !pos < n && not (blank text.[!pos] || text.[!pos] = ';') do
      incr pos
    done;
    String.sub text s (!pos - s)
  in
  let int_of what tok =
    match int_of_string_opt tok with
    | Some i -> i
    | None -> failwith (Printf.sprintf "parse_opb: %s %S" what tok)
  in
  let literal tok =
    let neg = String.starts_with ~prefix:"~" tok in
    let x = if neg then String.sub tok 1 (String.length tok - 1) else tok in
    let i =
      if String.starts_with ~prefix:"x" x then
        int_of "bad literal" (String.sub x 1 (String.length x - 1))
      else 0
    in
    if i < 1 then failwith ("parse_opb: bad literal " ^ tok);
    while Formula.num_vars f < i do
      ignore (Formula.fresh_var f)
    done;
    if neg then Lit.neg (i - 1) else Lit.pos (i - 1)
  in
  let end_statement () =
    match token () with
    | "" -> if !pos < n then incr pos
    | tok -> failwith ("parse_opb: trailing token " ^ tok)
  in
  (* [terms] in reverse; [clause] while every coefficient is 1 *)
  let rec body ~objective terms clause =
    match token () with
    | "" when objective ->
      Formula.set_objective_min f (List.rev terms);
      end_statement ()
    | "" -> failwith "parse_opb: missing relation"
    | (">=" | "<=" | "=") as rel when not objective ->
      let b = int_of "bad bound" (token ()) in
      (match rel with
      | ">=" when clause && b = 1 -> Formula.add_clause f (List.map snd terms)
      | ">=" -> Formula.add_pb_ge f (List.rev terms) b
      | "<=" -> Formula.add_pb_le f (List.rev terms) b
      | _ -> Formula.add_pb_eq f (List.rev terms) b);
      end_statement ()
    | tok ->
      let c = int_of "bad coefficient" tok in
      let l = literal (token ()) in
      body ~objective ((c, l) :: terms) (clause && c = 1)
  in
  let rec statements () =
    skip ();
    if !pos < n then begin
      if text.[!pos] = ';' then incr pos
      else begin
        let objective = n - !pos >= 4 && String.sub text !pos 4 = "min:" in
        if objective then pos := !pos + 4;
        body ~objective [] true
      end;
      statements ()
    end
  in
  statements ();
  f

let parse_dimacs_cnf text =
  let f = Formula.create () in
  let lines = String.split_on_char '\n' text in
  let declared = ref None in
  let pending = ref [] in
  let ensure_vars n =
    while Formula.num_vars f < n do
      ignore (Formula.fresh_var f)
    done
  in
  let handle_int i =
    if i = 0 then begin
      Formula.add_clause f (List.rev !pending);
      pending := []
    end
    else begin
      ensure_vars (abs i);
      pending := Lit.of_dimacs i :: !pending
    end
  in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = 'c' then ()
      else if line.[0] = 'p' then begin
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ "p"; "cnf"; nv; nc ] -> (
          match (int_of_string_opt nv, int_of_string_opt nc) with
          | Some nv, Some nc ->
            declared := Some (nv, nc);
            ensure_vars nv
          | _ -> failwith "parse_dimacs_cnf: malformed problem line")
        | _ -> failwith "parse_dimacs_cnf: malformed problem line"
      end
      else
        String.split_on_char ' ' line
        |> List.filter (( <> ) "")
        |> List.iter (fun tok ->
               match int_of_string_opt tok with
               | Some i -> handle_int i
               | None -> failwith "parse_dimacs_cnf: malformed literal"))
    lines;
  if !pending <> [] then failwith "parse_dimacs_cnf: unterminated clause";
  if !declared = None then failwith "parse_dimacs_cnf: missing problem line";
  f
