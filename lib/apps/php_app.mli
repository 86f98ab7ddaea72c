(** PHP server models.

    Two variants appear in the paper: the PHP built-in CGI web server
    backed by MySQL (Figure 6c) and PHP-FPM behind NGINX (Figures 8, 9
    use webdevops/php-nginx with one FPM worker). *)

val cgi_request : queries:int -> Recipe.t
(** A request to the built-in server that issues [queries] database
    round trips over TCP (the Figure 6c page issues one, read or write
    with equal probability). *)

val fpm_request : Recipe.t
(** NGINX -> PHP-FPM over FastCGI: the request hops to the FPM worker
    process and back (two intra-container process switches). *)
